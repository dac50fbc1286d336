// Package seaborn reimplements the original blind-rowhammer analysis of
// Seaborn & Dullien (Black Hat'15), the paper's first-generation
// baseline. The method uses no timing channel at all: it hammers address
// pairs at swept strides inside its own allocation, records which pairs
// induce bit flips, and infers DRAM addressing structure from the
// successful pairs — each flip-producing pair must have been same-bank
// with rows two apart, so its address XOR is a parity-kernel vector of
// every bank function.
//
// The approach is inherently
//
//   - slow: most hammer bursts land in different banks or non-adjacent
//     rows and produce nothing (hours per machine), and
//   - non-generic: it needs the machine to actually flip (it learns
//     nothing on rowhammer-resistant configurations) and its stride
//     sweep only reaches kernel vectors inside its contiguous
//     allocation, so the recovered function space is usually
//     underdetermined and needs manual post-processing — which is how
//     the original analysis was in fact conducted.
package seaborn

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"dramdig/internal/addr"
	"dramdig/internal/alloc"
	"dramdig/internal/dram"
	"dramdig/internal/linalg"
	"dramdig/internal/mapping"
	"dramdig/internal/sysinfo"
)

// Target is the machine surface the blind tool needs: memory, hammering
// and flip observation. No timing primitive.
type Target interface {
	SysInfo() sysinfo.Info
	Pool() *alloc.Pool
	HammerPair(a, b addr.Phys, acts uint64) []dram.Flip
	ClockNs() float64
	AdvanceClock(ns float64)
}

// Config seeds and logs a sweep.
type Config struct {
	// Seed drives pair selection.
	Seed int64
	// Logf receives progress lines.
	Logf func(format string, args ...any)
}

const (
	// actsPerAggressor is the activations per aggressor in one burst.
	actsPerAggressor = 90_000
	// timeoutSimSeconds caps the run.
	timeoutSimSeconds = 7200
)

// ErrNoFlips is returned when the machine never flips: the blind method
// learns nothing (its non-generic failure mode).
var ErrNoFlips = errors.New("seaborn: no bit flips induced; blind analysis impossible on this machine")

// Result is the analysis output. CandidateFuncs spans every function
// consistent with the observed evidence — typically a superset of the
// true function space that a human must prune (as in the original
// analysis).
type Result struct {
	// KernelVectors are the observed same-bank XOR patterns.
	KernelVectors []uint64
	// CandidateFuncs is a basis of all XOR functions consistent with
	// the evidence.
	CandidateFuncs []uint64
	// FlipPairs is the number of flip-producing hammer pairs.
	FlipPairs int
	// Exact reports whether the candidate space has exactly
	// log2(#banks) dimensions (fully determined).
	Exact           bool
	TotalSimSeconds float64
	WallSeconds     float64
}

// String renders the result.
func (r *Result) String() string {
	m := &mapping.Mapping{BankFuncs: r.CandidateFuncs}
	return fmt.Sprintf("candidates: %s (from %d flip pairs, exact=%v)",
		m.FuncString(), r.FlipPairs, r.Exact)
}

// Tool is a configured instance.
type Tool struct {
	target Target
	rng    *rand.Rand
	logf   func(string, ...any)
}

// New creates an instance.
func New(target Target, cfg Config) *Tool {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Tool{target: target, rng: rand.New(rand.NewSource(cfg.Seed)), logf: logf}
}

// Run hammers random page pairs of the allocation in sweeps of 8,192
// bursts, collecting flip evidence until three sweeps in a row add no
// kernel rank, then solves for the consistent function space.
func (t *Tool) Run() (*Result, error) {
	return t.RunContext(context.Background())
}

// RunContext is Run under a context: the hammer-burst loop polls it, so
// cancellation returns promptly with the context's error.
func (t *Tool) RunContext(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	clock0 := t.target.ClockNs()
	pool := t.target.Pool()
	pStart, pEnd := pool.PrimaryRange()
	span := uint64(pEnd - pStart)
	info := t.target.SysInfo()
	L := 0
	for 1<<(L+1) <= info.TotalBanks() {
		L++
	}

	kernel := linalg.NewMatrix()
	var kernelVecs []uint64
	flipPairs := 0
	lastRank, stagnant := 0, 0
	const burstsPerSweep = 8192
	for sweep := 0; stagnant < 3; sweep++ {
		if (t.target.ClockNs()-clock0)/1e9 > timeoutSimSeconds {
			break
		}
		for i := 0; i < burstsPerSweep; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if (t.target.ClockNs()-clock0)/1e9 > timeoutSimSeconds {
				break
			}
			// Blind pair selection inside the contiguous allocation,
			// row-granular (the original analysis hammered
			// page-aligned addresses).
			offA := uint64(t.rng.Int63n(int64(span)))
			offB := uint64(t.rng.Int63n(int64(span)))
			a := pStart + addr.Phys(offA&^4095)
			b := pStart + addr.Phys(offB&^4095)
			if a == b {
				continue
			}
			flips := t.target.HammerPair(a, b, actsPerAggressor)
			if len(flips) == 0 {
				continue
			}
			flipPairs++
			x := uint64(a ^ b)
			if !kernel.InSpan(x) {
				kernel.AddRow(x)
				kernelVecs = append(kernelVecs, x)
			}
		}
		r := kernel.Rank()
		t.logf("sweep %d: %d flip pairs, kernel rank %d", sweep, flipPairs, r)
		if r == lastRank {
			stagnant++
		} else {
			stagnant = 0
		}
		lastRank = r
	}
	if flipPairs == 0 {
		return nil, fmt.Errorf("%w (%.0f simulated seconds spent)", ErrNoFlips,
			(t.target.ClockNs()-clock0)/1e9)
	}

	// Functions consistent with the evidence: XOR masks with even
	// parity on every kernel vector, over the bit range the evidence
	// covers.
	var universe uint64
	for _, x := range kernelVecs {
		universe |= x
	}
	universe &^= (uint64(1) << 13) - 1 // sub-row bits cannot select banks alone
	cands := linalg.Nullspace(kernelVecs, universe)
	cands = linalg.MinimizeByWeight(cands)
	res := &Result{
		KernelVectors:   kernelVecs,
		CandidateFuncs:  cands,
		FlipPairs:       flipPairs,
		Exact:           len(cands) == L,
		TotalSimSeconds: (t.target.ClockNs() - clock0) / 1e9,
		WallSeconds:     time.Since(start).Seconds(),
	}
	t.logf("done: %s", res)
	return res, nil
}
