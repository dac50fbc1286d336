// Step 1 of DRAMDig: coarse-grained row and column bit detection
// (paper §III-C). The method follows Xiao et al.: a single-bit flip that
// produces a row-buffer conflict marks a row bit; a two-bit flip (one
// known row bit plus one candidate) that still conflicts marks the
// candidate as a column bit. Everything left is a bank-bit candidate.
//
// Two pieces of domain knowledge round the step out:
//
//   - bits below the cache line (0–5) are column/offset bits by
//     construction (two addresses in one line are one transaction);
//   - physical bits too high to pair up inside the tool's allocation are
//     row bits: on every documented Intel configuration the row index
//     occupies the top of the physical space, and the chip specification
//     gives the exact row-bit count that Step 3 cross-checks.

package core

import (
	"fmt"

	"dramdig/internal/addr"
	"dramdig/internal/alloc"
	"dramdig/internal/sysinfo"
	"dramdig/internal/timing"
)

// coarseResult is Step 1's output.
type coarseResult struct {
	rowBits    []uint // detected row bits (conflict on single flip)
	assumedRow []uint // unreachable high bits, classified by knowledge
	colBits    []uint // column bits incl. cache-line offset bits 0–5
	bankBits   []uint // leftover: candidate bank-function inputs
	physBits   uint
}

// bitTrials is the number of address pairs a bit vote measures (Steps 1
// and 3).
const bitTrials = 8

// pairForBit draws up to bitTrials base addresses whose mask-flip stays
// inside the pool, returning found pairs.
func (t *Tool) pairForBit(pool *alloc.Pool, mask uint64) [][2]addr.Phys {
	var pairs [][2]addr.Phys
	attempts := bitTrials * 64
	for len(pairs) < bitTrials && attempts > 0 {
		attempts--
		a := pool.RandomAddr(t.rng, 1<<timing.CacheLineBits)
		b := a.FlipMask(mask)
		if !pool.Contains(b) {
			continue
		}
		pairs = append(pairs, [2]addr.Phys{a, b})
	}
	return pairs
}

// voteConflict measures all pairs and reports whether a strict majority
// conflicts. A pair counts as conflicting only on the meter's unanimous
// vote (timing.Meter.IsConflictUnanimous): every caller reads a conflict
// as the finding (a row or column bit here, a shared row bit in Step 3),
// and whole-measurement outliers only add latency, so a false high is
// the costly error. In the column test it moves a bank-function bit out
// of Algorithm 3's candidates and yields a wrong mapping that still
// validates.
func (t *Tool) voteConflict(pairs [][2]addr.Phys) bool {
	if len(pairs) == 0 {
		return false
	}
	high := 0
	for _, p := range pairs {
		if t.meter.IsConflictUnanimous(p[0], p[1]) {
			high++
		}
	}
	return 2*high > len(pairs)
}

// voteConflictGuarded is voteConflict bracketed by drift checks: when a
// drift step invalidated the threshold mid-vote, the vote is redone under
// the fresh calibration.
func (t *Tool) voteConflictGuarded(pairs [][2]addr.Phys) (bool, error) {
	var vote bool
	for attempt := 0; attempt < 3; attempt++ {
		vote = t.voteConflict(pairs)
		moved, err := t.driftGuard(true)
		if err != nil {
			return false, err
		}
		if !moved {
			return vote, nil
		}
	}
	return vote, nil
}

// coarseDetect performs Step 1.
func (t *Tool) coarseDetect(info sysinfo.Info) (*coarseResult, error) {
	pool := t.target.Pool()
	physBits := info.PhysBits()
	res := &coarseResult{physBits: physBits}

	// Cache-line offset bits are column bits by domain knowledge.
	for b := uint(0); b < timing.CacheLineBits; b++ {
		res.colBits = append(res.colBits, b)
	}

	// Row bits: single-bit flips. A conflict means the two addresses
	// are SBDR, and since only one bit differs, that bit addresses rows.
	reachable := make(map[uint]bool)
	isRow := make(map[uint]bool)
	for b := uint(timing.CacheLineBits); b < physBits; b++ {
		pairs := t.pairForBit(pool, uint64(1)<<b)
		if len(pairs) == 0 {
			continue // unreachable within the allocation
		}
		reachable[b] = true
		conflict, err := t.voteConflictGuarded(pairs)
		if err != nil {
			return nil, err
		}
		if conflict {
			isRow[b] = true
			res.rowBits = append(res.rowBits, b)
		}
	}
	if len(res.rowBits) == 0 {
		return nil, fmt.Errorf("no row bits detected; timing channel broken?")
	}

	// Unreachable high bits are row bits by knowledge (row index sits at
	// the top of the physical space). Unreachable bits *below* a
	// detected row bit would violate that knowledge — fail loudly.
	minRow, _ := addr.MinMax(res.rowBits)
	for b := uint(timing.CacheLineBits); b < physBits; b++ {
		if reachable[b] {
			continue
		}
		if b < minRow {
			return nil, fmt.Errorf("bit %d unreachable within allocation but below detected row bit %d", b, minRow)
		}
		res.assumedRow = append(res.assumedRow, b)
	}

	// Column bits: flip one known row bit plus the candidate. Conflict
	// means same bank (neither flipped bit is a bank bit) and different
	// row (the row bit), so the candidate addresses columns.
	helper := res.rowBits[0]
	for _, b := range res.rowBits {
		if b < helper {
			helper = b
		}
	}
	for b := uint(timing.CacheLineBits); b < physBits; b++ {
		if isRow[b] || !reachable[b] {
			continue
		}
		mask := (uint64(1) << b) | (uint64(1) << helper)
		pairs := t.pairForBit(pool, mask)
		if len(pairs) == 0 {
			return nil, fmt.Errorf("no address pairs available for column test on bit %d", b)
		}
		conflict, err := t.voteConflictGuarded(pairs)
		if err != nil {
			return nil, err
		}
		if conflict {
			res.colBits = append(res.colBits, b)
		} else {
			res.bankBits = append(res.bankBits, b)
		}
	}
	if len(res.bankBits) == 0 {
		return nil, fmt.Errorf("no bank-bit candidates remain; inconsistent detection")
	}
	res.rowBits = addr.SortedCopy(res.rowBits)
	res.colBits = addr.SortedCopy(res.colBits)
	res.bankBits = addr.SortedCopy(res.bankBits)
	res.assumedRow = addr.SortedCopy(res.assumedRow)
	return res, nil
}
