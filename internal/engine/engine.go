// Package engine is the single entry point for running the DRAMDig
// pipeline: Engine.Run(ctx, src, ...Option) executes the tool against
// any source.Source — a live simulated machine, a recorded trace, a
// perturbed recording — under one option surface. It replaced the
// facade's historical trio of ReverseEngineer / RecordTrace /
// ReplayTrace.
//
// Options are functional and applied in order, so an explicit zero is
// representable: WithSeed(0) pins the tool seed to zero, while omitting
// WithSeed lets a trace source suggest its recorded seed (the strict
// replay default). The context is threaded into every measurement loop;
// cancelling it returns promptly with the context error.
package engine

import (
	"context"
	"errors"
	"fmt"
	"io"

	"dramdig/internal/core"
	"dramdig/internal/metrics"
	"dramdig/internal/source"
	"dramdig/internal/timing"
	"dramdig/internal/trace"
)

// toolName is the pipeline identifier written into trace headers.
const toolName = "dramdig"

// settings is the resolved option set of one Run.
type settings struct {
	cfg     core.Config
	seedSet bool
	sink    io.Writer
}

// Option tunes an Engine or a single Run. Options apply in order: later
// options win over earlier ones, and per-Run options win over the
// Engine's base options.
type Option func(*settings)

// WithSeed pins the tool seed. WithSeed(0) is an explicit zero — only
// *omitting* WithSeed lets a trace source's recorded seed apply.
func WithSeed(seed int64) Option {
	return func(s *settings) {
		s.cfg.Seed = seed
		s.seedSet = true
	}
}

// WithLogger streams progress lines into w.
func WithLogger(w io.Writer) Option {
	return func(s *settings) {
		if w == nil {
			s.cfg.Logf = nil
			return
		}
		s.cfg.Logf = func(format string, args ...any) {
			line := fmt.Sprintf(format, args...)
			if len(line) == 0 || line[len(line)-1] != '\n' {
				line += "\n"
			}
			io.WriteString(w, line)
		}
	}
}

// WithLogf routes progress lines to a printf-style callback.
func WithLogf(fn func(format string, args ...any)) Option {
	return func(s *settings) { s.cfg.Logf = fn }
}

// WithTraceSink records the run's full timing channel into w as an
// internal/trace binary stream (header + every MeasurePair sample). When
// w is an io.Closer it is closed with the run.
func WithTraceSink(w io.Writer) Option {
	return func(s *settings) { s.sink = w }
}

// WithProgress reports each completed pipeline step (calibrate, coarse,
// partition, resolve, fine) with its cost. Multiple WithProgress options
// compose.
func WithProgress(fn func(step string, stats core.StepStats)) Option {
	return func(s *settings) {
		if fn == nil {
			return
		}
		prev := s.cfg.OnStep
		s.cfg.OnStep = func(step string, stats core.StepStats) {
			if prev != nil {
				prev(step, stats)
			}
			fn(step, stats)
		}
	}
}

// NewInstrument registers the engine's hot-path metric family pair on r
// and returns an instrument for core.Config.Instrument, which a run
// takes through WithConfig and a campaign through its own
// Config.Instrument. dramdig_engine_samples_total counts raw MeasurePair
// calls and dramdig_engine_sample_latency_ns is the distribution of
// measured per-access latencies — on a calibrated channel it renders
// the bimodal hit/conflict split directly. A nil registry returns a
// usable no-op instrument.
func NewInstrument(r *metrics.Registry) *timing.Instrument {
	return &timing.Instrument{
		Samples: r.Counter("dramdig_engine_samples_total",
			"Raw MeasurePair samples taken by the pipeline.", nil),
		LatencyNs: r.Histogram("dramdig_engine_sample_latency_ns",
			"Measured per-access latencies (ns); bimodal on a working channel.",
			metrics.ExpBuckets(25, 1.5, 12), nil),
	}
}

// WithConfig replaces the full tool configuration. It marks the seed
// explicit: a full config states its seed, even a zero one, and is used
// verbatim.
func WithConfig(cfg core.Config) Option {
	return func(s *settings) {
		s.cfg = cfg
		s.seedSet = true
	}
}

// Engine runs the DRAMDig pipeline over sources. The zero value is
// usable; New attaches base options every Run inherits.
type Engine struct {
	base []Option
}

// New builds an engine with base options; per-Run options append after
// (and therefore override) them.
func New(opts ...Option) *Engine { return &Engine{base: opts} }

// Run executes the pipeline against the source under ctx. Cancellation
// or deadline expiry is observed inside every measurement loop and
// returns promptly with the context error. Deferred source errors —
// replay divergence, trace-sink write failures — surface here too, and
// take precedence over pipeline errors they explain.
func (e *Engine) Run(ctx context.Context, src source.Source, opts ...Option) (*core.Result, error) {
	if src == nil {
		return nil, errors.New("engine: nil source")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	var s settings
	for _, o := range e.base {
		if o != nil {
			o(&s)
		}
	}
	for _, o := range opts {
		if o != nil {
			o(&s)
		}
	}
	if !s.seedSet {
		if sg, ok := src.(source.SeedSuggester); ok {
			s.cfg.Seed = sg.SuggestedToolSeed()
		}
	}

	run, err := src.Open()
	if err != nil {
		return nil, err
	}
	if s.sink != nil {
		tw, werr := trace.NewWriter(s.sink, src.Header(toolName, s.cfg.Seed))
		if werr != nil {
			run.Close()
			return nil, werr
		}
		run = source.RecordRun(run, tw)
	}

	tool, err := core.New(run, s.cfg)
	if err != nil {
		run.Close()
		return nil, err
	}
	res, runErr := tool.RunContext(ctx)
	cerr := run.Close()
	if runErr != nil && (errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded)) {
		return nil, runErr
	}
	if cerr != nil {
		if runErr != nil {
			// A deferred source error (replay divergence, sink write
			// failure) usually explains the pipeline error; keep both.
			return nil, errors.Join(cerr, runErr)
		}
		return nil, cerr
	}
	return res, runErr
}
