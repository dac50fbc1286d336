package campaign

import (
	"context"
	"errors"
	"strings"
	"testing"

	"dramdig/internal/core"
	"dramdig/internal/machine"
)

// TestCampaignPaperSettings is the engine's core guarantee: a pooled
// campaign over the paper's nine Table II settings recovers every ground
// truth mapping, deterministically.
func TestCampaignPaperSettings(t *testing.T) {
	specs := PaperSpecs(42)
	if len(specs) != 9 {
		t.Fatalf("%d specs, want 9", len(specs))
	}
	var events []Event
	rep, err := Run(context.Background(), specs, Config{
		Workers: 4,
		Seed:    1,
		OnEvent: func(ev Event) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Succeeded != 9 || rep.Failed != 0 {
		rep.RenderTable(testWriter{t})
		t.Fatalf("succeeded %d failed %d, want 9/0", rep.Succeeded, rep.Failed)
	}
	for _, jr := range rep.Jobs {
		if !jr.Match {
			t.Errorf("%s: recovered mapping does not match ground truth: %s",
				jr.Name, jr.Result.Mapping)
		}
		if jr.Fingerprint == "" {
			t.Errorf("%s: no mapping fingerprint", jr.Name)
		}
	}
	// Jobs come back in spec order regardless of worker scheduling.
	for i, jr := range rep.Jobs {
		if jr.Name != specs[i].Name {
			t.Errorf("job %d is %s, want %s", i, jr.Name, specs[i].Name)
		}
	}
	// No.6 and No.9 declare the identical mapping (same functions, row
	// and column bits, 16 GiB), so nine machines yield eight equivalence
	// classes with exactly one two-member class.
	if len(rep.Classes) != 8 {
		t.Fatalf("%d equivalence classes, want 8: %+v", len(rep.Classes), rep.Classes)
	}
	if got := rep.Classes[0].Jobs; len(got) != 2 {
		t.Fatalf("largest class %v, want the No.6/No.9 pair", got)
	} else if !(got[0] == "No.6" && got[1] == "No.9") {
		t.Errorf("two-member class is %v, want [No.6 No.9]", got)
	}
	// Event stream: one started and one finished per job, started first.
	assertEventPairs(t, events, specs, EventJobFinished)
	// Simulated-time stats cover all nine runs.
	if rep.Sim.Total <= 0 || rep.Sim.Min <= 0 || rep.Sim.Max < rep.Sim.Min {
		t.Errorf("degenerate sim stats: %+v", rep.Sim)
	}
}

func assertEventPairs(t *testing.T, events []Event, specs []Spec, terminal EventKind) {
	t.Helper()
	started := map[string]bool{}
	finished := map[string]bool{}
	for _, ev := range events {
		switch ev.Kind {
		case EventJobStarted:
			started[ev.Job] = true
		case terminal:
			if !started[ev.Job] {
				t.Errorf("%s for %s before job_started", terminal, ev.Job)
			}
			finished[ev.Job] = true
		}
	}
	for _, s := range specs {
		if !finished[s.Name] {
			t.Errorf("no %s event for %s", terminal, s.Name)
		}
	}
}

// TestCampaignRetriesExhaust drives the retry loop with a definition that
// can never build, mixed with a healthy job to confirm isolation.
func TestCampaignRetriesExhaust(t *testing.T) {
	bad, err := machine.ByNo(4)
	if err != nil {
		t.Fatal(err)
	}
	bad.Name = "broken"
	bad.ChipPart = "NO-SUCH-PART"
	good, _ := machine.ByNo(4)
	specs := []Spec{
		{Name: "broken", Def: bad, Seed: 7},
		{Name: "good", Def: good, Seed: 7},
	}
	var events []Event
	rep, err := Run(context.Background(), specs, Config{
		Workers: 2,
		Retries: 2,
		Seed:    3,
		OnEvent: func(ev Event) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	broken := rep.Jobs[0]
	if broken.Err == nil {
		t.Fatal("broken job succeeded")
	}
	if broken.Attempts != 3 {
		t.Errorf("broken job attempts = %d, want 3 (1 + 2 retries)", broken.Attempts)
	}
	if !strings.Contains(broken.Err.Error(), "NO-SUCH-PART") {
		t.Errorf("unexpected error: %v", broken.Err)
	}
	attemptFails := 0
	sawFailed := false
	for _, ev := range events {
		if ev.Job != "broken" {
			continue
		}
		switch ev.Kind {
		case EventAttemptFailed:
			attemptFails++
		case EventJobFailed:
			sawFailed = true
		}
	}
	if attemptFails != 2 || !sawFailed {
		t.Errorf("broken job events: %d attempt_failed (want 2), job_failed %v", attemptFails, sawFailed)
	}
	if goodJob := rep.Jobs[1]; goodJob.Err != nil || !goodJob.Match {
		t.Errorf("healthy job dragged down: err=%v match=%v", goodJob.Err, goodJob.Match)
	}
	if rep.Succeeded != 1 || rep.Failed != 1 {
		t.Errorf("report counts %d/%d, want 1 ok / 1 failed", rep.Succeeded, rep.Failed)
	}
}

// TestCampaignCancelled: a dead context fails every job with the context
// error and Run reports it.
func TestCampaignCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Run(ctx, PaperSpecs(1), Config{Workers: 3})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil {
		t.Fatal("no report on cancellation")
	}
	for _, jr := range rep.Jobs {
		if !errors.Is(jr.Err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", jr.Name, jr.Err)
		}
		if jr.Attempts != 0 {
			t.Errorf("%s: %d attempts ran under a dead context", jr.Name, jr.Attempts)
		}
	}
}

// TestCampaignWrap: the interceptor can serve outcomes without running
// the pipeline, and cached outcomes flow into the report.
func TestCampaignWrap(t *testing.T) {
	// One real run of No.4 provides a result to "cache".
	pre, err := Run(context.Background(), []Spec{mustSpec(t, 4)}, Config{Seed: 5})
	if err != nil || pre.Succeeded != 1 {
		t.Fatalf("priming run failed: %v (%+v)", err, pre)
	}
	cached := pre.Jobs[0].Result

	ran := 0
	rep, err := Run(context.Background(), []Spec{mustSpec(t, 4), mustSpec(t, 1)}, Config{
		Seed: 5,
		Wrap: func(_ context.Context, spec Spec, run func() Outcome) Outcome {
			if spec.Def.No == 4 {
				return Outcome{Result: cached, Match: true, Cached: true}
			}
			ran++
			return run()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Errorf("pipeline ran %d times, want 1 (No.4 served from cache)", ran)
	}
	if rep.Cached != 1 || rep.Succeeded != 2 {
		t.Errorf("report: cached %d succeeded %d, want 1/2", rep.Cached, rep.Succeeded)
	}
	if jr := rep.Jobs[0]; !jr.Cached || jr.Attempts != 0 || jr.Fingerprint == "" {
		t.Errorf("cached job mis-reported: %+v", jr)
	}
}

// TestCampaignWrapReceivesFingerprint: a job computes its machine
// fingerprint once, and the wrapper receives it in the spec.
func TestCampaignWrapReceivesFingerprint(t *testing.T) {
	specs := []Spec{mustSpec(t, 1), mustSpec(t, 6)}
	var got []Spec
	rep, err := Run(context.Background(), specs, Config{
		Seed:    5,
		Workers: 1,
		Wrap: func(_ context.Context, spec Spec, run func() Outcome) Outcome {
			got = append(got, spec)
			return run()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(specs) {
		t.Fatalf("wrapper saw %d jobs, want %d", len(got), len(specs))
	}
	for i, spec := range got {
		if want := spec.Def.Fingerprint(); spec.FP == "" || spec.FP != want {
			t.Errorf("%s: wrapper got FP %q, want %q", spec.Def.Name, spec.FP, want)
		}
		if jr := rep.Jobs[i]; jr.MachineFingerprint != jr.Spec.Def.Fingerprint() {
			t.Errorf("%s: report carries fingerprint %q", jr.Name, jr.MachineFingerprint)
		}
	}
}

// TestGeneratedSpecs: generation is deterministic in the seed and the
// pipeline handles a generated machine end to end.
func TestGeneratedSpecs(t *testing.T) {
	a, err := GeneratedSpecs(3, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GeneratedSpecs(3, 11)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Def.Fingerprint() != b[i].Def.Fingerprint() {
			t.Errorf("spec %d not deterministic", i)
		}
	}
	rep, err := Run(context.Background(), a[:1], Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if jr := rep.Jobs[0]; jr.Err != nil || !jr.Match {
		t.Errorf("generated machine %s: err=%v match=%v", jr.Name, jr.Err, jr.Match)
	}
}

// TestCampaignToolOverride: a per-spec tool config flows through — an
// oversized Algorithm 1 pool must show up in the result's SelectedAddrs.
func TestCampaignToolOverride(t *testing.T) {
	spec := mustSpec(t, 1)
	spec.Tool = &core.Config{MinPoolAddrs: 8192}
	rep, err := Run(context.Background(), []Spec{spec}, Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	jr := rep.Jobs[0]
	if jr.Err != nil {
		t.Fatal(jr.Err)
	}
	if jr.Result.SelectedAddrs < 8192 {
		t.Errorf("SelectedAddrs = %d, want >= 8192: tool override not applied", jr.Result.SelectedAddrs)
	}
}

func mustSpec(t *testing.T, no int) Spec {
	t.Helper()
	def, err := machine.ByNo(no)
	if err != nil {
		t.Fatal(err)
	}
	return Spec{Name: def.Name, Def: def, Seed: 42*131 + int64(no)}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(string(p))
	return len(p), nil
}
