// Package source abstracts where a reverse-engineering tool's latency
// measurements come from. A Source bundles machine identity (name,
// content-addressed fingerprint, trace header) with the ability to open
// a timing surface; implementations cover a live simulated machine
// (Live), a recorded trace replayed offline (FromTrace) and a perturbed
// recording (Perturbed). RecordRun captures any opened run's timing
// channel into a trace while it runs.
//
// The Engine (internal/engine), the campaign runner (internal/campaign)
// and the public facade all consume Sources, so "run against hardware",
// "replay a recording" and "replay a noisy recording" are the same call
// with a different source.
package source

import (
	"errors"
	"fmt"

	"dramdig/internal/machine"
	"dramdig/internal/mapping"
	"dramdig/internal/timing"
	"dramdig/internal/trace"
)

// Source yields timing.Target measurements plus machine identity. A
// Source is reusable: every Open materializes a fresh Run, so one source
// can back several pipeline runs (campaign attempts, benchmarks).
type Source interface {
	// Name labels the source ("No.4", "No.4 (replay)").
	Name() string
	// Fingerprint content-addresses the machine identity behind the
	// measurements — machine.Definition.Fingerprint for live machines,
	// the recorded fingerprint for traces. The result store and daemon
	// key on it.
	Fingerprint() string
	// Header describes the source for trace recording: the machine
	// identity plus the tool about to run and its seed.
	Header(tool string, toolSeed int64) trace.Header
	// Open materializes the timing surface for one pipeline run.
	Open() (Run, error)
}

// Run is one opened measurement session: the timing surface the tool
// consumes plus a Close that releases it and surfaces deferred
// measurement errors (replay divergence, trace-sink write failures).
type Run interface {
	timing.Target
	Close() error
}

// Truther is implemented by sources that know the machine's
// ground-truth mapping (live machines). Trace-backed sources
// deliberately do not: a shared recording must not leak the answer.
type Truther interface {
	// Truth returns the ground-truth mapping, or nil when unknown.
	Truth() *mapping.Mapping
}

// SeedSuggester is implemented by sources that carry a natural default
// tool seed — trace sources suggest the recorded seed, which strict
// replay needs to reproduce the exact query sequence.
type SeedSuggester interface {
	SuggestedToolSeed() int64
}

// Truth extracts the ground-truth mapping behind a source, or nil when
// the source does not expose one (offline replays).
func Truth(s Source) *mapping.Mapping {
	if t, ok := s.(Truther); ok {
		return t.Truth()
	}
	return nil
}

// --- live machine ------------------------------------------------------

type liveSource struct{ m *machine.Machine }

// Live returns a source measuring a live simulated machine. Every Open
// returns the same machine: a Machine is stateful (clock, drift, wear)
// exactly like real hardware.
func Live(m *machine.Machine) Source { return liveSource{m: m} }

func (s liveSource) Name() string        { return s.m.Name() }
func (s liveSource) Fingerprint() string { return s.m.Def().Fingerprint() }
func (s liveSource) Header(tool string, toolSeed int64) trace.Header {
	return trace.HeaderFor(s.m, tool, toolSeed)
}
func (s liveSource) Open() (Run, error) { return liveRun{s.m}, nil }

// Truth exposes the simulator's ground truth.
func (s liveSource) Truth() *mapping.Mapping { return s.m.Truth() }

// liveRun adapts a machine to the Run interface; Close is a no-op.
type liveRun struct{ *machine.Machine }

func (r liveRun) Close() error { return nil }

// --- recorded trace ----------------------------------------------------

type traceSource struct {
	t    *trace.Trace
	mode trace.Mode
}

// FromTrace returns a source replaying a recorded trace fully offline:
// each Open rebuilds the machine surface from the header and serves
// every latency from the recording.
func FromTrace(t *trace.Trace, mode trace.Mode) Source {
	return traceSource{t: t, mode: mode}
}

func (s traceSource) Name() string {
	return fmt.Sprintf("%s (replay %s)", s.t.Header.Machine.Name, s.mode)
}
func (s traceSource) Fingerprint() string { return s.t.Header.Machine.Fingerprint }
func (s traceSource) Header(tool string, toolSeed int64) trace.Header {
	h := s.t.Header
	h.Tool = tool
	h.ToolSeed = toolSeed
	return h
}
func (s traceSource) SuggestedToolSeed() int64 { return s.t.Header.ToolSeed }
func (s traceSource) Open() (Run, error) {
	rep, err := trace.NewReplayer(s.t, s.mode)
	if err != nil {
		return nil, err
	}
	return replayRun{rep}, nil
}

// replayRun surfaces replay divergence through Close.
type replayRun struct{ *trace.Replayer }

func (r replayRun) Close() error { return r.Err() }

// Perturbed returns a source replaying t after applying the noise models
// in order, each with a deterministic rng derived from seed. Keyed mode
// is the usual companion: perturbation may change the tool's query
// order.
func Perturbed(t *trace.Trace, mode trace.Mode, seed int64, models ...trace.Noise) Source {
	return FromTrace(trace.Perturb(t, seed, models...), mode)
}

// --- recording ---------------------------------------------------------

// RecordRun wraps an open run so every measurement is appended to tw.
// Close flushes and closes the writer (and its underlying sink), then
// closes the wrapped run; the run's error — a divergence, typically —
// takes precedence in the joined result.
func RecordRun(run Run, tw *trace.Writer) Run {
	return &tracedRun{Recorder: trace.NewRecorder(run, tw), under: run}
}

type tracedRun struct {
	*trace.Recorder
	under Run
}

func (r *tracedRun) Close() error {
	cerr := r.Recorder.Close()
	uerr := r.under.Close()
	return errors.Join(uerr, cerr)
}
