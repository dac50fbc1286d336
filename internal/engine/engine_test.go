package engine

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"dramdig/internal/addr"
	"dramdig/internal/core"
	"dramdig/internal/machine"
	"dramdig/internal/metrics"
	"dramdig/internal/source"
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

// cancelRun wraps a source.Run and cancels a context after a fixed
// number of measurements, counting every call.
type cancelRun struct {
	source.Run
	cancel context.CancelFunc
	after  int
	calls  int
}

func (c *cancelRun) MeasurePair(a, b addr.Phys, rounds int) float64 {
	c.calls++
	if c.calls == c.after {
		c.cancel()
	}
	return c.Run.MeasurePair(a, b, rounds)
}

// cancelSource injects a cancelRun around another source's runs.
type cancelSource struct {
	source.Source
	cancel context.CancelFunc
	after  int
	run    *cancelRun
}

func (s *cancelSource) Open() (source.Run, error) {
	run, err := s.Source.Open()
	if err != nil {
		return nil, err
	}
	s.run = &cancelRun{Run: run, cancel: s.cancel, after: s.after}
	return s.run, nil
}

// TestRunCancelsMidPipeline is the acceptance check for context
// propagation: cancelling mid-pipeline returns the context error
// promptly — within a bounded number of further measurements, not at
// the end of the current step.
func TestRunCancelsMidPipeline(t *testing.T) {
	full, err := New().Run(context.Background(), source.Live(testMachine(t)), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	total := int(full.Measurements)
	if total < 1000 {
		t.Fatalf("pipeline took only %d measurements; cancellation points make no sense", total)
	}

	// One cancel point early (calibration) and one deep in the pipeline
	// (partitioning). The slack bound covers the longest stretch between
	// cancellation polls: a 64-iteration partition scan chunk at 3
	// measurements each, plus drift-guard sentinel probes.
	const slack = 1024
	for _, after := range []int{total / 20, total / 2} {
		ctx, cancel := context.WithCancel(context.Background())
		src := &cancelSource{Source: source.Live(testMachine(t)), cancel: cancel, after: after}
		res, err := New().Run(ctx, src, WithSeed(1))
		cancel()
		if res != nil {
			t.Errorf("cancel@%d: got a result despite cancellation", after)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel@%d: err = %v, want context.Canceled", after, err)
		}
		if src.run.calls > after+slack {
			t.Errorf("cancel@%d: %d measurements after cancellation (want <= %d)",
				after, src.run.calls-after, slack)
		}
	}
}

// TestRunSeedDefaultsToRecording: without WithSeed, a trace source's
// recorded seed applies and strict replay is bit-identical; WithSeed(0)
// is a genuine zero and makes the strict replay diverge.
func TestRunSeedDefaultsToRecording(t *testing.T) {
	var buf bytes.Buffer
	live, err := New().Run(context.Background(), source.Live(testMachine(t)),
		WithSeed(7), WithTraceSink(&buf))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Header.ToolSeed != 7 {
		t.Fatalf("recorded tool seed %d, want 7", tr.Header.ToolSeed)
	}

	rep, err := New().Run(context.Background(), source.FromTrace(tr, trace.Strict))
	if err != nil {
		t.Fatalf("replay with recorded seed: %v", err)
	}
	if got, want := rep.Mapping.Fingerprint(), live.Mapping.Fingerprint(); got != want {
		t.Fatalf("replayed mapping %s, live %s", got, want)
	}

	var derr *trace.DivergenceError
	if _, err := New().Run(context.Background(), source.FromTrace(tr, trace.Strict), WithSeed(0)); !errors.As(err, &derr) {
		t.Fatalf("strict replay under explicit seed 0 returned %v, want a divergence", err)
	}
}

// TestRunProgress: WithProgress reports the five pipeline steps in
// order, with non-zero measurement costs, and composes with a second
// callback.
func TestRunProgress(t *testing.T) {
	var steps, steps2 []string
	var measured uint64
	_, err := New().Run(context.Background(), source.Live(testMachine(t)),
		WithSeed(1),
		WithProgress(func(step string, stats core.StepStats) {
			steps = append(steps, step)
			measured += stats.Measurements
		}),
		WithProgress(func(step string, _ core.StepStats) { steps2 = append(steps2, step) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"calibrate", "coarse", "partition", "resolve", "fine"}
	if len(steps) != len(want) {
		t.Fatalf("steps %v, want %v", steps, want)
	}
	for i := range want {
		if steps[i] != want[i] {
			t.Fatalf("steps %v, want %v", steps, want)
		}
	}
	if measured == 0 {
		t.Fatal("progress reported zero measurements across all steps")
	}
	if len(steps2) != len(want) {
		t.Fatalf("second progress callback saw %v", steps2)
	}
}

// TestRunInstrumented: an instrument set through WithConfig counts every
// raw measurement and feeds the latency distribution; the run result is
// identical to an uninstrumented run (instrumentation must not perturb
// the pipeline). The meters batch their samples, so the count must
// agree with them at every step boundary and after a run ends,
// completed or cancelled.
func TestRunInstrumented(t *testing.T) {
	r := metrics.NewRegistry()
	in := NewInstrument(r)
	var stepped uint64
	res, err := New().Run(context.Background(), source.Live(testMachine(t)),
		WithConfig(core.Config{Seed: 7, Instrument: in}), WithProgress(func(step string, st core.StepStats) {
			stepped += st.Measurements
			if got := in.Samples.Value(); got != stepped {
				t.Errorf("after %s: instrument saw %d samples, steps so far took %d", step, got, stepped)
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if got := in.Samples.Value(); got == 0 || got != in.LatencyNs.Count() {
		t.Fatalf("samples counter %d, histogram count %d", got, in.LatencyNs.Count())
	}
	if in.Samples.Value() != res.Measurements {
		t.Fatalf("instrument saw %d samples, result reports %d measurements",
			in.Samples.Value(), res.Measurements)
	}

	// A cancelled run returns mid-phase; its batched samples still reach
	// the instrument. The wrapped run counts every measurement the
	// meters took.
	for _, after := range []int{100, int(res.Measurements) / 2} {
		cin := NewInstrument(metrics.NewRegistry())
		ctx, cancel := context.WithCancel(context.Background())
		src := &cancelSource{Source: source.Live(testMachine(t)), cancel: cancel, after: after}
		_, err := New().Run(ctx, src, WithConfig(core.Config{Seed: 7, Instrument: cin}))
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel@%d: err = %v, want context.Canceled", after, err)
		}
		if got := cin.Samples.Value(); got != uint64(src.run.calls) || cin.LatencyNs.Count() != got {
			t.Fatalf("cancel@%d: instrument saw %d samples (histogram %d), meters took %d",
				after, got, cin.LatencyNs.Count(), src.run.calls)
		}
	}

	bare, err := New().Run(context.Background(), source.Live(testMachine(t)), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if bare.Mapping.Fingerprint() != res.Mapping.Fingerprint() {
		t.Fatal("instrumentation changed the recovered mapping")
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "dramdig_engine_samples_total") ||
		!strings.Contains(sb.String(), "dramdig_engine_sample_latency_ns_bucket") {
		t.Errorf("render missing engine families:\n%s", sb.String())
	}
}
