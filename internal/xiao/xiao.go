// Package xiao reimplements the reverse-engineering approach of Xiao et
// al. (USENIX Security'16), the paper's "efficient but not generic"
// baseline. The tool uses the same row-buffer timing channel as DRAMDig
// but bakes in a structural assumption from the DDR3 single-DIMM era:
// every bank address function is either a single bit or an XOR of exactly
// two bits that appear in no other function.
//
// The assumption holds on the paper's settings No.1/No.3/No.4 and the
// tool resolves them within minutes. On settings with overlapping or wide
// functions (dual-rank channels, DDR4 bank groups) the two-bit flip test
// cannot see functions whose bits also feed other functions, so the tool
// resolves a strict subset and then stalls hunting for the rest — the
// paper's §IV-A observation ("stuck after resolving (16, 20), (17, 21),
// (18, 22) as 3 of 6 bank address functions" on No.6, which this
// reimplementation reproduces bit-for-bit).
package xiao

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"dramdig/internal/addr"
	"dramdig/internal/mapping"
	"dramdig/internal/timing"
)

// Config seeds and logs a run of the Xiao et al. reimplementation.
type Config struct {
	// Seed drives base-address selection.
	Seed int64
	// Logf receives progress lines.
	Logf func(format string, args ...any)
}

// The tool's parameters.
const (
	// measureRounds is the alternating-access rounds per raw
	// measurement.
	measureRounds = 1600
	// measureRepeats is the median-of-n repeat count per decision.
	measureRepeats = 3
	// bitTrials is the number of address pairs per bit or pair test.
	bitTrials = 8
	// retrySweeps is how many times the tool re-sweeps pair candidates
	// before declaring itself stuck: the original code loops forever,
	// and the paper killed it manually.
	retrySweeps = 3
)

// ErrStuck reports the tool's non-generic failure mode: it resolved only
// a subset of the bank functions and cannot make further progress.
type ErrStuck struct {
	// Resolved is the partial function list.
	Resolved []uint64
	// Want is the required function count.
	Want int
}

// Error renders the failure like the paper describes it.
func (e *ErrStuck) Error() string {
	m := &mapping.Mapping{BankFuncs: e.Resolved}
	return fmt.Sprintf("xiao: stuck after resolving %s as %d of %d bank address functions",
		m.FuncString(), len(e.Resolved), e.Want)
}

// Result is the tool's output on success.
type Result struct {
	Funcs           []uint64
	RowBits         []uint
	ColBits         []uint
	Mapping         *mapping.Mapping
	TotalSimSeconds float64
	WallSeconds     float64
	Measurements    uint64
}

// String renders the result.
func (r *Result) String() string {
	m := &mapping.Mapping{BankFuncs: r.Funcs}
	return fmt.Sprintf("banks: %s | rows: %s | cols: %s",
		m.FuncString(), addr.FormatBitRanges(r.RowBits), addr.FormatBitRanges(r.ColBits))
}

// Tool is a configured instance.
type Tool struct {
	target timing.Target
	ctx    context.Context
	meter  *timing.Meter
	rng    *rand.Rand
	logf   func(string, ...any)
}

// New creates an instance.
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

// votePairs measures pairs differing in mask; true when a majority
// conflicts.
func (t *Tool) votePairs(mask uint64) (bool, bool) {
	pool := t.target.Pool()
	var found, high int
	attempts := bitTrials * 64
	for found < bitTrials && attempts > 0 {
		attempts--
		a := pool.RandomAddr(t.rng, 1<<timing.CacheLineBits)
		b := a.FlipMask(mask)
		if !pool.Contains(b) {
			continue
		}
		found++
		if t.meter.IsConflict(a, b) {
			high++
		}
	}
	if found == 0 {
		return false, false
	}
	return 2*high > found, true
}

// Run executes the tool: coarse bit classification, then the two-bit
// function sweep.
func (t *Tool) Run() (*Result, error) {
	return t.RunContext(context.Background())
}

// RunContext is Run under a context: the per-bit vote loops and the
// function sweeps poll it, so cancellation returns promptly with the
// context's error.
func (t *Tool) RunContext(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	t.ctx = ctx
	start := time.Now()
	clock0 := t.target.ClockNs()
	info := t.target.SysInfo()
	physBits := info.PhysBits()
	banks := info.TotalBanks()
	L := 0
	for 1<<(L+1) <= banks {
		L++
	}
	meter, err := timing.NewMeter(t.target, measureRounds, measureRepeats)
	if err != nil {
		return nil, err
	}
	t.meter = meter
	if _, err := meter.CalibrateContext(ctx, t.rng, 24*banks+256); err != nil {
		return nil, fmt.Errorf("xiao: %w", err)
	}

	// Coarse classification (single- and two-bit flips, as in their
	// paper; identical to DRAMDig Step 1).
	var rowBits, colBits, bankBits []uint
	for b := uint(0); b < timing.CacheLineBits; b++ {
		colBits = append(colBits, b)
	}
	reachable := map[uint]bool{}
	for b := uint(timing.CacheLineBits); b < physBits; b++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		conflict, ok := t.votePairs(uint64(1) << b)
		if !ok {
			rowBits = append(rowBits, b) // top-of-space default
			continue
		}
		reachable[b] = true
		if conflict {
			rowBits = append(rowBits, b)
		}
	}
	if len(rowBits) == 0 {
		return nil, errors.New("xiao: no row bits found")
	}
	helper, _ := addr.MinMax(rowBits)
	rowSet := addr.MaskFromBits(rowBits)
	for b := uint(timing.CacheLineBits); b < physBits; b++ {
		if rowSet&(uint64(1)<<b) != 0 || !reachable[b] {
			continue
		}
		conflict, ok := t.votePairs((uint64(1) << b) | (uint64(1) << helper))
		if ok && conflict {
			colBits = append(colBits, b)
		} else {
			bankBits = append(bankBits, b)
		}
	}

	// Two-bit function sweep over the bank candidates: a flip of (i, j)
	// that still conflicts is a function (i, j) whose high bit is a row
	// bit. The sweep is repeated when too few functions emerge; on
	// machines violating the 2-bit-disjoint assumption it never
	// completes.
	var funcs []uint64
	seen := map[uint64]bool{}
	for sweep := 0; sweep < retrySweeps && len(funcs) < L; sweep++ {
		for i := 0; i < len(bankBits); i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			for j := i + 1; j < len(bankBits); j++ {
				mask := (uint64(1) << bankBits[i]) | (uint64(1) << bankBits[j])
				if seen[mask] {
					continue
				}
				if conflict, ok := t.votePairs(mask); ok && conflict {
					seen[mask] = true
					funcs = append(funcs, mask)
				}
			}
		}
		// Pair a bank bit with a detected row bit: functions like
		// (14, 18) where 18 was *not* covered (single-rank DDR3).
		for _, i := range bankBits {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			for _, r := range rowBits {
				if r > i+8 {
					continue // their heuristic pairs nearby bits
				}
				mask := (uint64(1) << i) | (uint64(1) << r)
				if seen[mask] {
					continue
				}
				if conflict, ok := t.votePairs(mask); ok && conflict {
					seen[mask] = true
					funcs = append(funcs, mask)
				}
			}
		}
	}
	// Leftover bank bits in no resolved pair become single-bit
	// (channel) functions — but only when the leftover count exactly
	// matches the shortfall; otherwise the assignment is ambiguous and
	// the tool is stuck (its DDR3-era assumption does not hold).
	usedBits := uint64(0)
	for _, f := range funcs {
		usedBits |= f
	}
	var leftover []uint
	for _, b := range bankBits {
		if usedBits&(uint64(1)<<b) == 0 {
			leftover = append(leftover, b)
		}
	}
	if len(funcs)+len(leftover) == L {
		for _, b := range leftover {
			funcs = append(funcs, uint64(1)<<b)
		}
	}
	if len(funcs) != L {
		return nil, &ErrStuck{Resolved: funcs, Want: L}
	}

	// Shared row bits: the high bit of each resolved pair.
	usedBits = 0
	for _, f := range funcs {
		usedBits |= f
	}
	for _, f := range funcs {
		bits := addr.BitsFromMask(f)
		if len(bits) == 2 && rowSet&(uint64(1)<<bits[1]) == 0 {
			rowBits = append(rowBits, bits[1])
			rowSet |= uint64(1) << bits[1]
		}
	}
	// Columns: everything not row and not a function-only bit.
	var cols []uint
	funcOnly := usedBits &^ rowSet
	colSet := addr.MaskFromBits(colBits)
	for b := uint(0); b < physBits; b++ {
		bit := uint64(1) << b
		if colSet&bit != 0 || (rowSet&bit == 0 && funcOnly&bit == 0 && b >= timing.CacheLineBits) {
			cols = append(cols, b)
		}
	}
	res := &Result{
		Funcs:           funcs,
		RowBits:         addr.SortedCopy(rowBits),
		ColBits:         addr.SortedCopy(cols),
		TotalSimSeconds: (t.target.ClockNs() - clock0) / 1e9,
		WallSeconds:     time.Since(start).Seconds(),
		Measurements:    meter.Measurements(),
	}
	if m, err := mapping.New(physBits, res.Funcs, res.RowBits, res.ColBits); err == nil {
		res.Mapping = m
	}
	t.logf("resolved: %s", res)
	return res, nil
}
