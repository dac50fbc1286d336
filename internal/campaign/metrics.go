// Campaign metrics: job-lifecycle counters, attached through
// Config.Metrics. The struct's fields are the nil-safe types of
// internal/metrics and the struct pointer itself is nil-safe, so an
// unconfigured campaign pays nothing but nil checks.

package campaign

import "dramdig/internal/metrics"

// Metrics is the campaign layer's instrumentation. Build one with
// NewMetrics (or populate fields directly in tests) and attach it via
// Config.Metrics; a nil *Metrics disables everything.
type Metrics struct {
	// JobsStarted counts workers picking a job up.
	JobsStarted *metrics.Counter
	// JobsSucceeded / JobsFailed count terminal job outcomes.
	JobsSucceeded *metrics.Counter
	JobsFailed    *metrics.Counter
}

// NewMetrics registers the campaign metric families on r and returns the
// wired struct. A nil registry returns a usable no-op Metrics.
func NewMetrics(r *metrics.Registry) *Metrics {
	return &Metrics{
		JobsStarted: r.Counter("dramdig_campaign_jobs_started_total",
			"Campaign jobs picked up by a worker.", nil),
		JobsSucceeded: r.Counter("dramdig_campaign_jobs_succeeded_total",
			"Campaign jobs that produced a mapping.", nil),
		JobsFailed: r.Counter("dramdig_campaign_jobs_failed_total",
			"Campaign jobs that exhausted their attempts.", nil),
	}
}

func (m *Metrics) jobStarted() {
	if m != nil {
		m.JobsStarted.Inc()
	}
}

func (m *Metrics) jobFinished() {
	if m != nil {
		m.JobsSucceeded.Inc()
	}
}

func (m *Metrics) jobFailed() {
	if m != nil {
		m.JobsFailed.Inc()
	}
}
