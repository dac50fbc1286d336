// Replayer: a timing.Target that re-serves recorded samples, so any
// tool consuming the timing channel runs offline — no memory controller,
// no DRAM device, no simulator at all behind the interface.

package trace

import (
	"fmt"

	"dramdig/internal/addr"
	"dramdig/internal/alloc"
	"dramdig/internal/sysinfo"
	"dramdig/internal/timing"
)

// Mode selects how a Replayer matches incoming measurements to recorded
// samples.
type Mode int

const (
	// Strict serves samples in recorded order and requires every call
	// to match the recorded (a, b, rounds) exactly. Replaying the
	// recording tool with the recorded seed is bit-identical; any
	// divergence is an error.
	Strict Mode = iota
	// Keyed serves samples by (pair, rounds) lookup, order-independent:
	// each key's recordings are consumed FIFO, and a key measured more
	// often than it was recorded re-serves its last value (counted in
	// Reused). Only a pair that was never recorded is an error.
	Keyed
)

func (m Mode) String() string {
	switch m {
	case Strict:
		return "strict"
	case Keyed:
		return "keyed"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ParseMode parses "strict" or "keyed".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "strict":
		return Strict, nil
	case "keyed":
		return Keyed, nil
	default:
		return 0, fmt.Errorf("trace: unknown replay mode %q (want strict or keyed)", s)
	}
}

// DivergenceError reports a measurement the trace cannot serve: the
// replayed tool asked something the recorded run did not.
type DivergenceError struct {
	// Call is the index of the diverging MeasurePair call.
	Call int
	// A, B, Rounds are what the tool asked for.
	A, B   addr.Phys
	Rounds int
	// Want is the recorded sample at that position (strict mode only;
	// zero Sample in keyed mode or past the end of the trace).
	Want Sample
	// Reason classifies the failure.
	Reason string
}

func (e *DivergenceError) Error() string {
	if e.Reason == "exhausted" {
		return fmt.Sprintf("trace: replay diverged at call %d: trace exhausted (tool measured %x,%x rounds %d beyond the recording)",
			e.Call, uint64(e.A), uint64(e.B), e.Rounds)
	}
	if e.Reason == "unknown pair" {
		return fmt.Sprintf("trace: replay diverged at call %d: pair %x,%x rounds %d was never recorded",
			e.Call, uint64(e.A), uint64(e.B), e.Rounds)
	}
	return fmt.Sprintf("trace: replay diverged at call %d: tool measured %x,%x rounds %d, recording has %x,%x rounds %d",
		e.Call, uint64(e.A), uint64(e.B), e.Rounds, uint64(e.Want.A), uint64(e.Want.B), e.Want.Rounds)
}

// pairKey is the keyed-mode lookup key; the pair is stored unordered
// because the alternating access loop is symmetric.
type pairKey struct {
	lo, hi addr.Phys
	rounds int
}

func keyOf(a, b addr.Phys, rounds int) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey{lo: a, hi: b, rounds: rounds}
}

// Replayer implements timing.Target over a recorded trace.
type Replayer struct {
	info    sysinfo.Info
	pool    *alloc.Pool
	mode    Mode
	samples []Sample

	pos    int // strict cursor
	byKey  map[pairKey][]int
	last   map[pairKey]int // last served index per key, for reuse
	clock  float64
	calls  int
	reused int
	err    error
}

var _ timing.Target = (*Replayer)(nil)

// NewReplayer rebuilds the recorded machine's surface from the trace
// header and returns a replay target. The returned Replayer is fully
// offline: it holds no simulator, so every latency a tool observes comes
// from the trace.
func NewReplayer(t *Trace, mode Mode) (*Replayer, error) {
	info, pool, err := t.Header.Surface()
	if err != nil {
		return nil, err
	}
	return NewReplayerTarget(info, pool, t.Samples, mode), nil
}

// NewReplayerTarget builds a replay target from an explicit surface —
// for callers that already hold the live machine (regression fixtures
// replaying against machine.Surface output, tests).
func NewReplayerTarget(info sysinfo.Info, pool *alloc.Pool, samples []Sample, mode Mode) *Replayer {
	r := &Replayer{info: info, pool: pool, mode: mode, samples: samples}
	if mode == Keyed {
		r.byKey = make(map[pairKey][]int, len(samples))
		r.last = make(map[pairKey]int)
		for i, s := range samples {
			k := keyOf(s.A, s.B, s.Rounds)
			r.byKey[k] = append(r.byKey[k], i)
		}
	}
	return r
}

// MeasurePair serves the next recorded latency. The timing.Target
// interface cannot return an error, so on divergence the replayer
// records the first DivergenceError (see Err), returns 0 and keeps
// accepting calls; callers must check Err after the run.
func (r *Replayer) MeasurePair(a, b addr.Phys, rounds int) float64 {
	call := r.calls
	r.calls++
	switch r.mode {
	case Strict:
		if r.pos >= len(r.samples) {
			r.fail(&DivergenceError{Call: call, A: a, B: b, Rounds: rounds, Reason: "exhausted"})
			return 0
		}
		s := r.samples[r.pos]
		if s.A != a || s.B != b || s.Rounds != rounds {
			r.fail(&DivergenceError{Call: call, A: a, B: b, Rounds: rounds, Want: s, Reason: "mismatch"})
			return 0
		}
		r.pos++
		r.clock += s.ElapsedNs
		return s.LatencyNs
	default: // Keyed
		k := keyOf(a, b, rounds)
		if idxs := r.byKey[k]; len(idxs) > 0 {
			i := idxs[0]
			r.byKey[k] = idxs[1:]
			r.last[k] = i
			s := r.samples[i]
			r.clock += s.ElapsedNs
			return s.LatencyNs
		}
		if i, ok := r.last[k]; ok {
			r.reused++
			s := r.samples[i]
			r.clock += s.ElapsedNs
			return s.LatencyNs
		}
		r.fail(&DivergenceError{Call: call, A: a, B: b, Rounds: rounds, Reason: "unknown pair"})
		return 0
	}
}

func (r *Replayer) fail(err *DivergenceError) {
	if r.err == nil {
		r.err = err
	}
}

// SysInfo returns the rebuilt system information.
func (r *Replayer) SysInfo() sysinfo.Info { return r.info }

// Pool returns the rebuilt allocation pool.
func (r *Replayer) Pool() *alloc.Pool { return r.pool }

// ClockNs returns the replayed simulated clock: the sum of served
// samples' elapsed times plus tool-charged overhead.
func (r *Replayer) ClockNs() float64 { return r.clock }

// AdvanceClock charges tool-side overhead, exactly like a live machine.
func (r *Replayer) AdvanceClock(ns float64) { r.clock += ns }

// Calls returns the number of MeasurePair calls served.
func (r *Replayer) Calls() int { return r.calls }

// Reused returns how many keyed-mode calls re-served an exhausted key's
// last value (always 0 in strict mode).
func (r *Replayer) Reused() int { return r.reused }

// Err returns the first divergence, or nil for a faithful replay so far.
func (r *Replayer) Err() error { return r.err }
