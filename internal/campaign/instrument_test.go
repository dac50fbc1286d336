package campaign

import (
	"context"
	"testing"

	"dramdig/internal/metrics"
	"dramdig/internal/timing"
)

// TestCampaignInstrument: Config.Instrument counts every raw
// measurement of every attempt. The job lifecycle counters live with
// the worker that counts the job events (internal/cluster).
func TestCampaignInstrument(t *testing.T) {
	r := metrics.NewRegistry()
	inst := &timing.Instrument{ // engine.NewInstrument's shape
		Samples:   r.Counter("dramdig_engine_samples_total", "Raw samples.", nil),
		LatencyNs: r.Histogram("dramdig_engine_sample_latency_ns", "Latencies.", metrics.ExpBuckets(25, 1.5, 12), nil),
	}
	rep, err := Run(context.Background(), []Spec{mustSpec(t, 1), mustSpec(t, 4)}, Config{
		Seed:       3,
		Instrument: inst,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Succeeded != 2 {
		t.Fatalf("succeeded %d, want 2", rep.Succeeded)
	}
	var want uint64
	for _, jr := range rep.Jobs {
		want += jr.Result.Measurements
	}
	if got := inst.Samples.Value(); got != want {
		t.Fatalf("instrument saw %d samples, jobs report %d", got, want)
	}
}
