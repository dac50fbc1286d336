package source

import (
	"bytes"
	"errors"
	"testing"

	"dramdig/internal/core"
	"dramdig/internal/machine"
	"dramdig/internal/trace"
)

func testMachine(t *testing.T) *machine.Machine {
	t.Helper()
	m, err := machine.NewByNo(4, 42)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// record runs the pipeline over a recorded live run and returns the
// decoded trace plus the live result.
func record(t *testing.T, seed int64) (*trace.Trace, *core.Result) {
	t.Helper()
	src := Live(testMachine(t))
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, src.Header("dramdig", seed))
	if err != nil {
		t.Fatal(err)
	}
	live, err := src.Open()
	if err != nil {
		t.Fatal(err)
	}
	run := RecordRun(live, tw)
	tool, err := core.New(run, core.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tool.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return tr, res
}

func TestLiveSourceIdentity(t *testing.T) {
	m := testMachine(t)
	src := Live(m)
	if src.Name() != m.Name() {
		t.Errorf("name %q, want %q", src.Name(), m.Name())
	}
	if src.Fingerprint() != m.Def().Fingerprint() {
		t.Errorf("fingerprint mismatch")
	}
	h := src.Header("dramdig", 9)
	if h.ToolSeed != 9 || h.Machine.Fingerprint != m.Def().Fingerprint() {
		t.Errorf("header %+v", h)
	}
	run, err := src.Open()
	if err != nil {
		t.Fatal(err)
	}
	if truth := Truth(src); truth == nil || !truth.EquivalentTo(m.Truth()) {
		t.Error("live source does not expose ground truth")
	}
	if err := run.Close(); err != nil {
		t.Errorf("live close: %v", err)
	}
}

// TestTraceSourceRoundTrip: a traced live run replays bit-identically
// through FromTrace, Truth stays hidden, and the suggested seed is the
// recorded one.
func TestTraceSourceRoundTrip(t *testing.T) {
	tr, live := record(t, 7)
	src := FromTrace(tr, trace.Strict)
	if src.Fingerprint() != tr.Header.Machine.Fingerprint {
		t.Error("fingerprint not taken from header")
	}
	if got := src.(SeedSuggester).SuggestedToolSeed(); got != 7 {
		t.Errorf("suggested seed %d, want 7", got)
	}
	if Truth(src) != nil {
		t.Fatal("replay source leaks ground truth")
	}
	run, err := src.Open()
	if err != nil {
		t.Fatal(err)
	}
	tool, err := core.New(run, core.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tool.Run()
	if err != nil {
		t.Fatalf("replay: %v (close: %v)", err, run.Close())
	}
	if err := run.Close(); err != nil {
		t.Fatalf("replay diverged: %v", err)
	}
	if got, want := res.Mapping.Fingerprint(), live.Mapping.Fingerprint(); got != want {
		t.Fatalf("replayed %s, live %s", got, want)
	}
}

// TestTraceSourceDivergenceSurfacesOnClose: running with the wrong seed
// against a strict replay reports the divergence through Close.
func TestTraceSourceDivergenceSurfacesOnClose(t *testing.T) {
	tr, _ := record(t, 7)
	run, err := FromTrace(tr, trace.Strict).Open()
	if err != nil {
		t.Fatal(err)
	}
	tool, err := core.New(run, core.Config{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = tool.Run()
	var derr *trace.DivergenceError
	if err := run.Close(); !errors.As(err, &derr) {
		t.Fatalf("close returned %v, want a DivergenceError", err)
	}
}

// TestPerturbedSourceNotes: perturbation shows up in the header note and
// changes samples, while identity is preserved.
func TestPerturbedSourceNotes(t *testing.T) {
	tr, _ := record(t, 7)
	src := Perturbed(tr, trace.Keyed, 3, trace.Jitter{SigmaNs: 2})
	if src.Fingerprint() != tr.Header.Machine.Fingerprint {
		t.Error("perturbed source lost the machine fingerprint")
	}
	h := src.Header("dramdig", 7)
	if h.Note == "" {
		t.Error("perturbed header carries no provenance note")
	}
	run, err := src.Open()
	if err != nil {
		t.Fatal(err)
	}
	run.Close()
}
