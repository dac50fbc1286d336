package campaign

import (
	"context"
	"strings"
	"testing"

	"dramdig/internal/machine"
	"dramdig/internal/metrics"
	"dramdig/internal/timing"
)

// testInstrument mirrors engine.NewInstrument without importing the
// engine package from here.
func testInstrument(r *metrics.Registry) *timing.Instrument {
	return &timing.Instrument{
		Samples:   r.Counter("dramdig_engine_samples_total", "Raw samples.", nil),
		LatencyNs: r.Histogram("dramdig_engine_sample_latency_ns", "Latencies.", metrics.ExpBuckets(25, 1.5, 12), nil),
	}
}

// TestCampaignMetrics: Config.Metrics counts job lifecycle;
// Config.Instrument counts every raw measurement of every attempt.
func TestCampaignMetrics(t *testing.T) {
	r := metrics.NewRegistry()
	m := NewMetrics(r)
	inst := testInstrument(r)
	rep, err := Run(context.Background(), []Spec{mustSpec(t, 1), mustSpec(t, 4)}, Config{
		Seed:       3,
		Metrics:    m,
		Instrument: inst,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Succeeded != 2 {
		t.Fatalf("succeeded %d, want 2", rep.Succeeded)
	}
	if m.JobsStarted.Value() != 2 || m.JobsSucceeded.Value() != 2 || m.JobsFailed.Value() != 0 {
		t.Fatalf("lifecycle counters: started=%d succeeded=%d failed=%d",
			m.JobsStarted.Value(), m.JobsSucceeded.Value(), m.JobsFailed.Value())
	}
	var want uint64
	for _, jr := range rep.Jobs {
		want += jr.Result.Measurements
	}
	if got := inst.Samples.Value(); got != want {
		t.Fatalf("instrument saw %d samples, jobs report %d", got, want)
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{
		"dramdig_campaign_jobs_started_total 2",
		"dramdig_campaign_jobs_succeeded_total 2",
	} {
		if !strings.Contains(sb.String(), fam) {
			t.Errorf("render missing %q", fam)
		}
	}
}

// TestCampaignMetricsFailed: failed jobs land in the failure counter,
// and a nil registry yields a usable no-op Metrics.
func TestCampaignMetricsFailed(t *testing.T) {
	noop := NewMetrics(nil)
	noop.jobStarted() // must not panic
	if noop.JobsStarted.Value() != 0 {
		t.Fatal("no-op metrics recorded a value")
	}

	r := metrics.NewRegistry()
	m := NewMetrics(r)
	bad, err := machine.ByNo(4)
	if err != nil {
		t.Fatal(err)
	}
	bad.Name = "broken"
	bad.ChipPart = "NO-SUCH-PART"
	rep, err := Run(context.Background(), []Spec{{Name: "broken", Def: bad, Seed: 7}},
		Config{Seed: 5, Retries: -1, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 1 {
		t.Fatalf("failed %d, want 1 (job err: %v)", rep.Failed, rep.Jobs[0].Err)
	}
	if m.JobsStarted.Value() != 1 || m.JobsFailed.Value() != 1 || m.JobsSucceeded.Value() != 0 {
		t.Fatalf("lifecycle counters: started=%d succeeded=%d failed=%d",
			m.JobsStarted.Value(), m.JobsFailed.Value(), m.JobsSucceeded.Value())
	}
}
