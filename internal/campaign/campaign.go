// Package campaign runs fleets of reverse-engineering jobs concurrently:
// it fans a set of machine specifications — the paper's nine Table II
// settings, randomly generated machines, or user-supplied custom
// definitions — across a worker pool, runs the DRAMDig pipeline on each
// with independent deterministic seeds, retries transient failures with
// fresh seeds, streams progress events, and aggregates the per-machine
// outcomes into a campaign report (success rate, timing statistics,
// mapping equivalence classes).
//
// Jobs run over source.Source: the default source is a live simulated
// machine built from the spec's definition, but any source works —
// TraceSpec builds offline jobs that replay recorded traces with zero
// simulation, so one campaign can mix live and recorded machines.
//
// The engine is the concurrency layer the dramdigd daemon builds on; it
// deliberately knows nothing about HTTP or persistence. Per-job execution
// can be wrapped (Config.Wrap) so a caller may interpose a result cache —
// the cluster worker uses this to back jobs with the coordinator's
// content-addressed store — and each attempt's timing channel can be
// captured into an internal/trace stream (Config.TraceSink) for offline
// replay.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"dramdig/internal/core"
	"dramdig/internal/engine"
	"dramdig/internal/machine"
	"dramdig/internal/obs"
	"dramdig/internal/source"
	"dramdig/internal/timing"
	"dramdig/internal/trace"
)

// Spec is one campaign job: a measurement source to run the pipeline
// against. The default source is a live machine built from Def/Seed;
// Source overrides it, letting campaigns run equally over recorded
// traces (offline campaigns) or any custom source.Source.
type Spec struct {
	// Name labels the job in events and the report; defaults to the
	// definition's name.
	Name string
	// Def declares the machine for the default live source.
	Def machine.Definition
	// Seed is the machine seed (allocation layout, noise stream); retry
	// attempts perturb it deterministically.
	Seed int64
	// Source, when non-nil, supplies the job's measurement source per
	// attempt instead of the Def/Seed live machine. Sources that
	// suggest a tool seed (trace replays) pin it — a derived seed would
	// make strict replays diverge.
	Source func(attempt int) (source.Source, error)
	// FP overrides the machine-identity fingerprint reported for
	// source-based jobs (live jobs fingerprint their definition). A
	// running job sets it, so Config.Wrap and Config.TraceSink always
	// receive the spec with its fingerprint in FP.
	FP string
}

// MachineFingerprint content-addresses the job's machine identity: FP
// when set (source-based specs), the definition's fingerprint otherwise.
func (s Spec) MachineFingerprint() string {
	if s.FP != "" {
		return s.FP
	}
	return s.Def.Fingerprint()
}

// source materializes the job's measurement source for one attempt.
func (s Spec) source(attempt int) (source.Source, error) {
	if s.Source != nil {
		return s.Source(attempt)
	}
	m, err := machine.New(s.Def, s.Seed+int64(attempt)*31)
	if err != nil {
		return nil, err
	}
	return source.Live(m), nil
}

// TraceSpec returns an offline campaign job replaying a recorded trace:
// the pipeline consumes the recording through a replayer instead of a
// simulated machine, so whole campaigns run with zero simulation.
func TraceSpec(name string, t *trace.Trace, mode trace.Mode) Spec {
	if name == "" {
		name = fmt.Sprintf("%s (replay)", t.Header.Machine.Name)
	}
	return Spec{
		Name: name,
		FP:   t.Header.Machine.Fingerprint,
		Source: func(int) (source.Source, error) {
			return source.FromTrace(t, mode), nil
		},
	}
}

// PaperSpecs returns jobs for the paper's nine Table II settings, with
// per-machine seeds derived from the master seed the way internal/eval
// does.
func PaperSpecs(seed int64) []Spec {
	defs := machine.Settings()
	specs := make([]Spec, 0, len(defs))
	for _, def := range defs {
		specs = append(specs, paperSpec(def, seed))
	}
	return specs
}

// PaperSpec returns the job for one paper setting (1–9) under the master
// seed, with the same seed derivation as PaperSpecs.
func PaperSpec(no int, seed int64) (Spec, error) {
	def, err := machine.ByNo(no)
	if err != nil {
		return Spec{}, err
	}
	return paperSpec(def, seed), nil
}

func paperSpec(def machine.Definition, seed int64) Spec {
	return Spec{Name: def.Name, Def: def, Seed: seed*131 + int64(def.No)}
}

// GeneratedSpecs returns n jobs over randomly generated (but
// Intel-plausible) machine definitions, deterministically from the seed.
func GeneratedSpecs(n int, seed int64) ([]Spec, error) {
	rng := rand.New(rand.NewSource(seed))
	specs := make([]Spec, 0, n)
	for i := 0; i < n; i++ {
		def, err := generateDef(rng)
		if err != nil {
			return nil, err
		}
		specs = append(specs, Spec{
			Name: fmt.Sprintf("%s#%d", def.Name, i),
			Def:  def,
			Seed: seed + int64(i)*9176,
		})
	}
	return specs, nil
}

// generateDef retries the generator past its occasional too-large draws.
func generateDef(rng *rand.Rand) (machine.Definition, error) {
	var err error
	for tries := 0; tries < 32; tries++ {
		var def machine.Definition
		if def, err = machine.GenerateDefinition(rng); err == nil {
			return def, nil
		}
	}
	return machine.Definition{}, fmt.Errorf("campaign: machine generation kept failing: %w", err)
}

// EventKind classifies a progress event.
type EventKind string

const (
	// EventJobStarted fires when a worker picks the job up.
	EventJobStarted EventKind = "job_started"
	// EventAttemptFailed fires per failed attempt before a retry.
	EventAttemptFailed EventKind = "attempt_failed"
	// EventJobFinished fires on success.
	EventJobFinished EventKind = "job_finished"
	// EventJobFailed fires when every attempt failed.
	EventJobFailed EventKind = "job_failed"
)

// Event is one progress notification. Events are delivered to
// Config.OnEvent from a single dispatcher goroutine, in completion order.
type Event struct {
	Kind EventKind `json:"kind"`
	// Job and Index identify the spec.
	Job   string `json:"job"`
	Index int    `json:"index"`
	// Attempt is the 0-based attempt number (attempt_failed only).
	Attempt int `json:"attempt"`
	// Err carries the failure message (attempt_failed / job_failed).
	Err string `json:"err,omitempty"`
	// Match, Cached and SimSeconds describe a finished job.
	Match      bool    `json:"match,omitempty"`
	Cached     bool    `json:"cached,omitempty"`
	SimSeconds float64 `json:"sim_s,omitempty"`
}

// Outcome is the result of executing one job, as seen by Config.Wrap.
type Outcome struct {
	// Result is the successful pipeline output (nil when Err is set).
	Result *core.Result
	// Match reports ground-truth equivalence of the recovered mapping.
	Match bool
	// Cached marks an outcome served by a wrapper's cache rather than a
	// pipeline run.
	Cached bool
	// Attempts is the number of pipeline attempts executed (0 for a
	// cache hit).
	Attempts int
	// Err is the last attempt's failure, nil on success.
	Err error
}

// Config tunes a campaign run. The zero value is usable.
type Config struct {
	// Workers caps concurrent jobs; default GOMAXPROCS.
	Workers int
	// Retries is the number of extra attempts after a failed one, each
	// with freshly derived machine and tool seeds; default 1. Negative
	// disables retries.
	Retries int
	// Seed is the master tool seed; per-(job, attempt) seeds derive from
	// it deterministically, so a campaign's outcome does not depend on
	// worker scheduling.
	Seed int64
	// OnEvent, when non-nil, receives progress events from a single
	// dispatcher goroutine (no locking needed in the callback).
	OnEvent func(Event)
	// Wrap, when non-nil, intercepts each job's execution: it receives
	// the job's context (carrying tracing/pprof state), the spec and a
	// run function executing the full attempt loop, and may return a
	// cached Outcome instead of calling run. See internal/cluster's
	// Worker for the store-backed interceptor.
	Wrap func(ctx context.Context, spec Spec, run func() Outcome) Outcome
	// TraceSink, when non-nil, supplies a sink per pipeline attempt for
	// recording the job's timing channel as an internal/trace stream
	// (header + every MeasurePair sample). Returning (nil, nil) skips
	// tracing that attempt; a sink error fails the attempt. The engine
	// closes the sink when the attempt's run finishes, success or not; a
	// sink whose source fails to open is dropped unclosed, unwritten.
	TraceSink func(spec Spec, index, attempt int) (io.WriteCloser, error)
	// Metrics, when non-nil, receives job-lifecycle counts (see
	// NewMetrics).
	Metrics *Metrics
	// Instrument, when non-nil, is attached to every pipeline attempt's
	// meters (hot-path sample counting; see timing.Instrument). It does
	// not perturb results — instrumented and bare runs recover identical
	// mappings.
	Instrument *timing.Instrument
}

func (c *Config) setDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Retries == 0 {
		c.Retries = 1
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
}

// Run executes the campaign: specs fan out across the worker pool and the
// aggregated report comes back with one JobResult per spec, in spec
// order. Cancelling the context stops new attempts; jobs not yet run
// report the context error. The returned error is nil unless the input
// is unusable or the context was cancelled (the report is still returned
// in the latter case).
func Run(ctx context.Context, specs []Spec, cfg Config) (*Report, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("campaign: no specs")
	}
	cfg.setDefaults()
	// More workers than jobs is pure goroutine waste — and Workers may
	// come from an untrusted request (dramdigd), so clamp hard.
	if cfg.Workers > len(specs) {
		cfg.Workers = len(specs)
	}
	start := time.Now()

	// Dispatcher: serialize events from all workers into OnEvent. The
	// channel closes only after every worker has finished emitting.
	emit := func(Event) {}
	if cfg.OnEvent != nil {
		events := make(chan Event, 16)
		dispatcherDone := make(chan struct{})
		go func() {
			defer close(dispatcherDone)
			for ev := range events {
				cfg.OnEvent(ev)
			}
		}()
		emit = func(ev Event) { events <- ev }
		defer func() {
			close(events)
			<-dispatcherDone
		}()
	}

	jobs := make(chan int)
	results := make([]JobResult, len(specs))
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				results[idx] = runJob(ctx, specs[idx], cfg, idx, emit)
			}
		}()
	}
	for idx := range specs {
		jobs <- idx
	}
	close(jobs)
	wg.Wait()

	report := buildReport(specs, results, time.Since(start).Seconds())
	// Report the context error only when it actually cost us jobs: a
	// cancellation arriving after the last job completed is not a
	// campaign failure.
	if err := ctx.Err(); err != nil {
		for _, jr := range results {
			if errors.Is(jr.Err, err) {
				return report, err
			}
		}
	}
	return report, nil
}

// runJob executes one spec (through the wrapper when configured) and
// converts the outcome into a JobResult.
func runJob(ctx context.Context, spec Spec, cfg Config, idx int, emit func(Event)) JobResult {
	// Hashing a definition is not free (about 0.1 ms on the largest
	// settings), and the wrapper, the trace sink and the result each
	// want the fingerprint: compute it once and carry it in the spec.
	spec.FP = spec.MachineFingerprint()
	name := spec.Name
	if name == "" {
		name = spec.Def.Name
	}
	start := time.Now()
	cfg.Metrics.jobStarted()
	emit(Event{Kind: EventJobStarted, Job: name, Index: idx})

	// The job span parents every engine-phase and store span below, and
	// the pprof label segments CPU profiles per job. Both ride the
	// context and are no-ops when the daemon didn't configure them.
	ctx, span := obs.Start(ctx, "campaign.job",
		obs.KV("job", name), obs.Int("index", int64(idx)))

	var out Outcome
	pprof.Do(ctx, pprof.Labels("job", name), func(ctx context.Context) {
		run := func() Outcome { return attemptLoop(ctx, spec, cfg, idx, name, emit) }
		if cfg.Wrap != nil {
			out = cfg.Wrap(ctx, spec, run)
		} else {
			out = run()
		}
	})

	jr := JobResult{
		Spec:               spec,
		Name:               name,
		Result:             out.Result,
		Err:                out.Err,
		Attempts:           out.Attempts,
		Match:              out.Match,
		Cached:             out.Cached,
		MachineFingerprint: spec.FP,
		WallSeconds:        time.Since(start).Seconds(),
	}
	if out.Err == nil && out.Result != nil && out.Result.Mapping != nil {
		jr.Fingerprint = out.Result.Mapping.Fingerprint()
		cfg.Metrics.jobFinished()
		emit(Event{Kind: EventJobFinished, Job: name, Index: idx,
			Match: out.Match, Cached: out.Cached,
			SimSeconds: out.Result.TotalSimSeconds})
	} else {
		if jr.Err == nil {
			jr.Err = fmt.Errorf("campaign: wrapper returned neither result nor error")
		}
		cfg.Metrics.jobFailed()
		emit(Event{Kind: EventJobFailed, Job: name, Index: idx, Err: jr.Err.Error()})
	}
	span.SetAttrInt("attempts", int64(jr.Attempts))
	if jr.Cached {
		span.SetAttr("cached", "true")
	}
	span.SetError(jr.Err)
	span.End()
	return jr
}

// attemptLoop is the default per-job execution: materialize the job's
// source, run DRAMDig, retry any failure up to cfg.Retries times with
// perturbed deterministic seeds. Simulation noise makes pipeline
// failures transient; configuration errors simply fail again and
// exhaust quickly. Context errors abort the loop immediately — a
// cancelled attempt must not be retried.
func attemptLoop(ctx context.Context, spec Spec, cfg Config, idx int, name string, emit func(Event)) Outcome {
	var lastErr error
	for attempt := 0; attempt <= cfg.Retries; attempt++ {
		if err := ctx.Err(); err != nil {
			return Outcome{Err: err, Attempts: attempt}
		}
		res, match, err := runAttempt(ctx, spec, cfg, idx, attempt)
		if err == nil {
			return Outcome{Result: res, Match: match, Attempts: attempt + 1}
		}
		if ctx.Err() != nil {
			return Outcome{Err: ctx.Err(), Attempts: attempt + 1}
		}
		lastErr = err
		if attempt < cfg.Retries {
			emit(Event{Kind: EventAttemptFailed, Job: name, Index: idx, Attempt: attempt, Err: err.Error()})
		}
	}
	return Outcome{Err: lastErr, Attempts: cfg.Retries + 1}
}

// runAttempt executes one pipeline attempt through engine.Run.
func runAttempt(ctx context.Context, spec Spec, cfg Config, idx, attempt int) (*core.Result, bool, error) {
	src, err := spec.source(attempt)
	if err != nil {
		return nil, false, err
	}
	// Every (job, attempt) gets its own tool seed, so concurrent jobs
	// never share randomness.
	toolCfg := core.Config{
		Seed:       cfg.Seed + int64(idx)*7919 + int64(attempt)*104729,
		Instrument: cfg.Instrument,
	}
	if sg, ok := src.(source.SeedSuggester); ok {
		// Replay sources carry the recorded tool seed; a derived one
		// would make strict replays diverge. WithConfig marks the seed
		// explicit, so the engine does not apply the suggestion itself.
		toolCfg.Seed = sg.SuggestedToolSeed()
	}
	opts := []engine.Option{engine.WithConfig(toolCfg)}
	// With a trace sink configured, the attempt's whole timing channel
	// is captured for offline replay.
	if cfg.TraceSink != nil {
		sink, err := cfg.TraceSink(spec, idx, attempt)
		if err != nil {
			return nil, false, fmt.Errorf("campaign: trace sink: %w", err)
		}
		if sink != nil {
			opts = append(opts, engine.WithTraceSink(sink))
		}
	}
	res, err := engine.New().Run(ctx, src, opts...)
	if err != nil {
		return nil, false, err
	}
	match := false
	if truth := source.Truth(src); truth != nil && res.Mapping != nil {
		match = res.Mapping.EquivalentTo(truth)
	}
	return res, match, nil
}
