// Package drama reimplements the DRAMA reverse-engineering tool of Pessl
// et al. (USENIX Security'16), the generic baseline the paper compares
// against. DRAMA is knowledge-free by design:
//
//   - it samples physical addresses blindly (random pages) instead of
//     sweeping bank-bit combinations,
//   - it estimates the bank count from the number of same-bank sets it
//     happens to find,
//   - it brute-forces XOR masks over a wide bit range with strict
//     constancy checks (no tolerance machinery),
//   - it calibrates its latency threshold once and never again,
//   - it picks a function basis in arbitrary (run-dependent) order, and
//   - it has no counterpart of DRAMDig's fine-grained Step 3, so row bits
//     that also feed bank functions ("shared bits") are absent from its
//     output.
//
// These faithful design choices reproduce the behaviour the DRAMDig paper
// reports: DRAMA is one to two orders of magnitude slower, its output
// varies from run to run, and on machines whose timing channel drifts
// (the paper's No.3 and No.7) it keeps re-collecting sets until its time
// budget expires.
package drama

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"dramdig/internal/addr"
	"dramdig/internal/linalg"
	"dramdig/internal/mapping"
	"dramdig/internal/timing"
)

// Config seeds and logs a DRAMA run.
type Config struct {
	// Seed drives the run's randomness. DRAMA's output depends on it —
	// that is the non-determinism the paper criticizes.
	Seed int64
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// DRAMA's parameters.
const (
	// poolAddrs is the number of blindly sampled addresses.
	poolAddrs = 3000
	// measureRounds is the alternating-access rounds per raw
	// measurement: DRAMA measures long.
	measureRounds = 2400
	// membershipAvg is how many raw measurements a set-membership
	// decision averages, as in the original tool.
	membershipAvg = 10
	// maxMaskBits caps the XOR-mask brute force.
	maxMaskBits = 7
	// sampleCheck is how many members per set a mask is verified
	// against.
	sampleCheck = 128
	// coverageFrac stops set collection once this fraction of the pool
	// is assigned.
	coverageFrac = 0.8
	// minSetSize rejects sets smaller than this.
	minSetSize = 12
	// bitTrials is the per-bit trial count for row detection.
	bitTrials = 6
	// timeoutSimSeconds aborts the run after this much simulated time:
	// the paper killed DRAMA after two hours.
	timeoutSimSeconds = 7200
)

// ErrTimeout is returned when DRAMA exhausts its simulated time budget
// without converging (the paper's No.3/No.7 behaviour).
var ErrTimeout = errors.New("drama: timed out without producing a mapping")

// Result is DRAMA's output. Funcs/RowBits/ColBits are always set on
// success; Mapping is non-nil only when they happen to form a consistent
// bijection (DRAMA performs no such validation itself — the field is
// filled opportunistically for downstream consumers).
type Result struct {
	Funcs   []uint64
	RowBits []uint
	ColBits []uint
	Mapping *mapping.Mapping

	Sets            int
	Attempts        int
	TotalSimSeconds float64
	WallSeconds     float64
	Measurements    uint64
}

// FuncString renders the functions in the paper's notation.
func (r *Result) FuncString() string {
	m := &mapping.Mapping{BankFuncs: r.Funcs}
	return m.FuncString()
}

// String renders the full result.
func (r *Result) String() string {
	return fmt.Sprintf("banks: %s | rows: %s | cols: %s",
		r.FuncString(), addr.FormatBitRanges(r.RowBits), addr.FormatBitRanges(r.ColBits))
}

// Tool is a configured DRAMA instance.
type Tool struct {
	target timing.Target
	ctx    context.Context
	meter  *timing.Meter
	rng    *rand.Rand
	logf   func(string, ...any)
	meas   uint64 // raw measurements performed outside the meter
}

// New creates a DRAMA instance.
func New(target timing.Target, cfg Config) *Tool {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Tool{
		target: target,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		logf:   logf,
	}
}

// Run executes DRAMA until it converges or times out.
func (t *Tool) Run() (*Result, error) {
	return t.RunContext(context.Background())
}

// RunContext is Run under a context: the set-collection scans — DRAMA's
// dominant measurement loops — poll it, so cancellation returns promptly
// with the context's error.
func (t *Tool) RunContext(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	t.ctx = ctx
	start := time.Now()
	clock0 := t.target.ClockNs()
	meter, err := timing.NewMeter(t.target, measureRounds, 1)
	if err != nil {
		return nil, err
	}
	t.meter = meter

	// One-shot calibration; the threshold is never refreshed.
	cal, err := meter.CalibrateContext(ctx, t.rng, 1024)
	if err != nil {
		return nil, fmt.Errorf("drama: %w", err)
	}
	t.logf("calibrated once: %s", cal)

	attempts := 0
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if (t.target.ClockNs()-clock0)/1e9 > timeoutSimSeconds {
			return nil, fmt.Errorf("%w (after %d attempts, %.0f simulated seconds)",
				ErrTimeout, attempts, (t.target.ClockNs()-clock0)/1e9)
		}
		attempts++
		res, err := t.attempt(clock0)
		if err != nil {
			t.logf("attempt %d failed: %v", attempts, err)
			continue
		}
		res.Attempts = attempts
		res.TotalSimSeconds = (t.target.ClockNs() - clock0) / 1e9
		res.WallSeconds = time.Since(start).Seconds()
		res.Measurements = meter.Measurements() + t.meas
		t.logf("converged after %d attempts: %s", attempts, res)
		return res, nil
	}
}

// isMemberAvg implements DRAMA's averaged membership test.
func (t *Tool) isMemberAvg(a, b addr.Phys) bool {
	var sum float64
	for i := 0; i < membershipAvg; i++ {
		sum += t.target.MeasurePair(a, b, measureRounds)
	}
	t.meas += membershipAvg
	return sum/membershipAvg >= t.meter.Threshold()
}

// attempt performs one full collection + analysis pass.
func (t *Tool) attempt(clock0 float64) (*Result, error) {
	info := t.target.SysInfo()
	physBits := info.PhysBits()
	pool := t.samplePool()

	// ---- set collection -------------------------------------------
	remaining := pool
	var sets [][]addr.Phys
	failedTries := 0
	for float64(len(pool)-len(remaining)) < coverageFrac*float64(len(pool)) {
		if err := t.ctx.Err(); err != nil {
			return nil, err
		}
		if (t.target.ClockNs()-clock0)/1e9 > timeoutSimSeconds {
			return nil, fmt.Errorf("timeout during set collection")
		}
		if failedTries > 4*(len(sets)+4) {
			return nil, fmt.Errorf("set collection stalled after %d sets (%d failed tries)",
				len(sets), failedTries)
		}
		base := remaining[t.rng.Intn(len(remaining))]
		var members, rest []addr.Phys
		for i, q := range remaining {
			if i&63 == 0 {
				if err := t.ctx.Err(); err != nil {
					return nil, err
				}
			}
			if q == base {
				continue
			}
			if t.isMemberAvg(base, q) {
				members = append(members, q)
			} else {
				rest = append(rest, q)
			}
		}
		if len(members) < minSetSize || len(members) > len(pool)/2 {
			failedTries++
			continue
		}
		sets = append(sets, append([]addr.Phys{base}, members...))
		remaining = rest
	}
	if len(sets) < 2 {
		return nil, fmt.Errorf("found only %d sets", len(sets))
	}
	// Bank count estimate: nearest power of two.
	L := 0
	for 1<<(L+1) <= len(sets) {
		L++
	}
	if r := float64(len(sets)) / float64(int(1)<<L); r > 1.5 {
		L++
	}
	banksEst := 1 << L
	if f := float64(len(sets)) / float64(banksEst); f < 0.75 || f > 1.5 {
		return nil, fmt.Errorf("set count %d is not near a power of two", len(sets))
	}

	// ---- brute-force mask search -----------------------------------
	maxBit := physBits - 1
	if maxBit > 33 {
		maxBit = 33
	}
	var searchBits []uint
	for b := uint(timing.CacheLineBits); b <= maxBit; b++ {
		searchBits = append(searchBits, b)
	}
	var candidates []uint64
	for k := 1; k <= maxMaskBits; k++ {
		addr.Combinations(searchBits, k, func(mask uint64) bool {
			if t.maskConstantOnSets(mask, sets) {
				candidates = append(candidates, mask)
			}
			return true
		})
	}
	// The brute force is tool-side CPU time; charge a nominal cost.
	t.target.AdvanceClock(float64(len(searchBits)) * 2e6)
	if len(candidates) == 0 {
		return nil, fmt.Errorf("no constant XOR mask across %d sets", len(sets))
	}

	// ---- basis choice (run-order dependent!) ------------------------
	// Narrow masks are preferred (as in the original tool), but ties are
	// broken by run-dependent order: equivalent bases come out in
	// different presentations on different runs — the non-determinism
	// the paper criticizes.
	t.rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	sort.SliceStable(candidates, func(i, j int) bool {
		return linalg.Popcount(candidates[i]) < linalg.Popcount(candidates[j])
	})
	picked := linalg.NewMatrix()
	var funcs []uint64
	for _, m := range candidates {
		if picked.InSpan(m) {
			continue
		}
		picked.AddRow(m)
		funcs = append(funcs, m)
	}
	if len(funcs) != L {
		return nil, fmt.Errorf("found %d independent functions, set count suggests %d", len(funcs), L)
	}

	// ---- row bits ----------------------------------------------------
	// Row bits come from single-flip detection alone. Shared row bits
	// (row bits that also feed bank functions) are invisible to this
	// test and missing from DRAMA's output — recovering them is exactly
	// the fine-grained Step 3 that DRAMDig contributes, and their
	// absence is why hammering with DRAMA mappings underperforms in the
	// paper's Table III.
	rowBits, err := t.detectRows(physBits)
	if err != nil {
		return nil, err
	}

	// ---- column bits: everything that is neither row nor function ----
	rowSet := addr.MaskFromBits(rowBits)
	var funcBits uint64
	for _, f := range funcs {
		funcBits |= f
	}
	var colBits []uint
	for b := uint(0); b < physBits; b++ {
		bit := uint64(1) << b
		if rowSet&bit == 0 && funcBits&bit == 0 {
			colBits = append(colBits, b)
		}
	}

	res := &Result{
		Funcs:   funcs,
		RowBits: rowBits,
		ColBits: colBits,
		Sets:    len(sets),
	}
	if m, err := mapping.New(physBits, funcs, rowBits, colBits); err == nil {
		res.Mapping = m
	}
	return res, nil
}

// samplePool draws poolAddrs random cache-line-aligned addresses.
func (t *Tool) samplePool() []addr.Phys {
	pool := t.target.Pool()
	seen := make(map[addr.Phys]struct{}, poolAddrs)
	out := make([]addr.Phys, 0, poolAddrs)
	for len(out) < poolAddrs {
		a := pool.RandomAddr(t.rng, 1<<timing.CacheLineBits)
		if _, dup := seen[a]; dup {
			continue
		}
		seen[a] = struct{}{}
		out = append(out, a)
	}
	return out
}

// maskConstantOnSets applies DRAMA's constancy check on a sample of each
// set. One stray member per set is tolerated (the original tool's
// majority-style check), anything more kills the mask.
func (t *Tool) maskConstantOnSets(mask uint64, sets [][]addr.Phys) bool {
	for _, set := range sets {
		n := min(len(set), sampleCheck)
		allowed := 1 + n/64
		want := set[0].XorFold(mask)
		disagree := 0
		for i := 1; i < n; i++ {
			if set[i].XorFold(mask) != want {
				disagree++
				if disagree > allowed {
					return false
				}
			}
		}
	}
	return true
}

// detectRows is DRAMA's single-flip row detection: no spec knowledge, no
// repeats beyond the averaged membership test.
func (t *Tool) detectRows(physBits uint) ([]uint, error) {
	pool := t.target.Pool()
	var rows []uint
	var minDetected uint = physBits
	unreachable := make([]uint, 0)
	for b := uint(timing.CacheLineBits); b < physBits; b++ {
		votes, high := 0, 0
		tries := bitTrials * 64
		for votes < bitTrials && tries > 0 {
			tries--
			a := pool.RandomAddr(t.rng, 1<<timing.CacheLineBits)
			q := a.FlipBit(b)
			if !pool.Contains(q) {
				continue
			}
			votes++
			if t.isMemberAvg(a, q) {
				high++
			}
		}
		if votes == 0 {
			unreachable = append(unreachable, b)
			continue
		}
		if 2*high > votes {
			rows = append(rows, b)
			if b < minDetected {
				minDetected = b
			}
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("no row bits detected")
	}
	// Unreachable high bits default to row bits (top of address space).
	for _, b := range unreachable {
		if b > minDetected {
			rows = append(rows, b)
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i] < rows[j] })
	return rows, nil
}
