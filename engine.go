// The unified Engine/Source surface: one Run call over pluggable
// measurement sources, which replaced the historical ReverseEngineer /
// RecordTrace / ReplayTrace trio. See MIGRATION.md for the old-to-new
// mapping.

package dramdig

import (
	"context"
	"io"

	"dramdig/internal/core"
	"dramdig/internal/engine"
	"dramdig/internal/source"
	"dramdig/internal/trace"
)

// Source yields timing measurements plus machine identity — the
// pluggable "where latencies come from" abstraction (re-exported). Build
// one with LiveSource, TraceSource or PerturbedSource.
type Source = source.Source

// SourceRun is one opened measurement session of a Source
// (re-exported).
type SourceRun = source.Run

// LiveSource measures a live simulated machine.
func LiveSource(m *Machine) Source { return source.Live(m) }

// TraceSource replays a recorded trace fully offline: the machine
// surface rebuilds from the trace header and every latency is served
// from the recording — zero simulation.
func TraceSource(t *Trace, mode trace.Mode) Source { return source.FromTrace(t, mode) }

// PerturbedSource replays t after applying the noise models in order,
// each with a deterministic rng derived from seed. Keyed replay mode is
// the usual companion: noise may change the tool's query order.
func PerturbedSource(t *Trace, mode trace.Mode, seed int64, models ...TraceNoise) Source {
	return source.Perturbed(t, mode, seed, models...)
}

// Engine runs the DRAMDig pipeline over any Source (re-exported). The
// zero value is usable; NewEngine attaches base options every Run
// inherits, and per-Run options override them:
//
//	eng := dramdig.NewEngine(dramdig.WithLogger(os.Stderr))
//	res, err := eng.Run(ctx, dramdig.LiveSource(m), dramdig.WithSeed(7))
type Engine = engine.Engine

// EngineOption tunes an Engine or a single Run (re-exported). Options
// apply in order; later options win.
type EngineOption = engine.Option

// ToolConfig is the full DRAMDig pipeline configuration (re-exported);
// pass it with WithConfig. Its tuning fields are the ones the
// evaluation varies: Delta, PartitionRounds and MinPoolAddrs (the
// parameter ablations), PaperStop (Figure 2's paper stop rule and the
// drift-guard ablation) and DisableDriftGuard (that ablation). Seed,
// Logf, OnStep and Instrument are what the engine's options and
// campaigns set. Every other parameter of the pipeline is a constant.
type ToolConfig = core.Config

// StepStats records one pipeline step's cost (re-exported).
type StepStats = core.StepStats

// NewEngine builds an engine with base options.
func NewEngine(opts ...EngineOption) *Engine { return engine.New(opts...) }

// WithSeed pins the tool seed. WithSeed(0) is an explicit zero — only
// omitting WithSeed lets a trace source default to its recorded seed.
func WithSeed(seed int64) EngineOption { return engine.WithSeed(seed) }

// WithLogger streams the pipeline's progress lines into w.
func WithLogger(w io.Writer) EngineOption { return engine.WithLogger(w) }

// WithLogf routes progress lines to a printf-style callback.
func WithLogf(fn func(format string, args ...any)) EngineOption { return engine.WithLogf(fn) }

// WithTraceSink records the run's full timing channel into w as an
// internal/trace binary stream; decode it with DecodeTrace and replay
// with TraceSource.
func WithTraceSink(w io.Writer) EngineOption { return engine.WithTraceSink(w) }

// WithProgress reports each completed pipeline step ("calibrate",
// "coarse", "partition", "resolve", "fine") with its cost.
func WithProgress(fn func(step string, stats StepStats)) EngineOption {
	return engine.WithProgress(fn)
}

// WithConfig replaces the full tool configuration (and marks its seed
// explicit, even a zero one).
func WithConfig(cfg ToolConfig) EngineOption { return engine.WithConfig(cfg) }

// Run is the package-level convenience for a one-shot Engine run.
func Run(ctx context.Context, src Source, opts ...EngineOption) (*Result, error) {
	return NewEngine().Run(ctx, src, opts...)
}
