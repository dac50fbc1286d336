// Step 2a of DRAMDig: knowledge-guided physical-address selection
// (paper Algorithm 1). The selection sweeps every combination of the
// candidate bank bits exactly once, by finding a physically contiguous
// range covering [b_min, b_max] and pinning the in-range non-candidate
// bits ("miss mask") to one.
//
// Two engineering details extend the paper's pseudocode:
//
//   - the pseudocode's contiguity probe tests page addresses against a
//     mask that may include sub-page bits; those bits are always
//     available inside an owned page, so the probe here masks them out;
//   - when 2^|B| falls below MinPoolAddrs, the selection is widened by
//     additionally varying the lowest detected row bits (knowledge:
//     varying a pure row bit moves an address to another row of the same
//     bank pattern, keeping piles intact while giving the partition more
//     addresses to vote with). This matches the selected-address counts
//     the paper reports (§IV-B: ≈16 000 on No.6/No.9 down to ≈4 000 on
//     No.8).

package core

import (
	"fmt"
	"math/bits"
	"sort"

	"dramdig/internal/addr"
	"dramdig/internal/alloc"
)

// selection is Algorithm 1's output.
type selection struct {
	pool       []addr.Phys
	bMin, bMax uint
	missMask   uint64
	extraBits  []uint // row bits added to reach MinPoolAddrs
	rangeStart addr.Phys
	rangeEnd   addr.Phys
}

// selectAddresses runs Algorithm 1 over the coarse result.
func (t *Tool) selectAddresses(coarse *coarseResult) (*selection, error) {
	pool := t.target.Pool()
	B := coarse.bankBits
	if len(B) == 0 {
		return nil, fmt.Errorf("empty bank-bit candidate set")
	}
	if len(B) > 26 {
		return nil, fmt.Errorf("bank-bit candidate set %s too large; detection went wrong", addr.FormatBitRanges(B))
	}
	bMin, bMax := addr.MinMax(B)

	// Widen with low row bits until the pool reaches MinPoolAddrs.
	// Varying pure row bits preserves bank structure.
	var extra []uint
	widened := append([]uint(nil), B...)
	for need := t.cfg.MinPoolAddrs; 1<<uint(len(widened)) < need; {
		bit, ok := t.nextWideningBit(coarse, widened, bMax)
		if !ok {
			break // no more safe bits; proceed with what we have
		}
		extra = append(extra, bit)
		widened = append(widened, bit)
	}
	sort.Slice(widened, func(i, j int) bool { return widened[i] < widened[j] })
	wMin, wMax := addr.MinMax(widened)

	rangeMask := addr.RangeMask(wMin, wMax)
	var missMask uint64
	wSet := addr.MaskFromBits(widened)
	for b := wMin; b <= wMax; b++ {
		if wSet&(uint64(1)<<b) == 0 {
			missMask |= uint64(1) << b
		}
	}

	// Find a contiguous physical range covering the mask span. The
	// paper's probe checks (p & range_mask) == range_mask on page
	// addresses; sub-page bits are always owned, so they are excluded
	// from the probe.
	pageMask := rangeMask &^ (alloc.PageSize - 1)
	var start, end addr.Phys
	found := false
	for p := range pool.Matching(pageMask) {
		s := p - addr.Phys(pageMask)
		e := p + addr.Phys(alloc.PageSize)
		if pool.PageMiss(s, e) {
			continue
		}
		start, end, found = s, e, true
		break
	}
	if !found {
		return nil, fmt.Errorf("no contiguous physical range covering bits %d..%d in the allocation", wMin, wMax)
	}

	sel := enumerateSelection(pool, start, end, wMin, missMask)
	if len(sel) < 2 {
		return nil, fmt.Errorf("selection produced only %d addresses", len(sel))
	}
	// Pool scan and pagemap lookups cost tool time.
	t.target.AdvanceClock(float64(len(sel)) * 150)
	return &selection{
		pool:       sel,
		bMin:       bMin,
		bMax:       bMax,
		missMask:   missMask,
		extraBits:  extra,
		rangeStart: start,
		rangeEnd:   end,
	}, nil
}

// enumerateSelection lists the owned addresses p | missMask for p from
// start to end at stride 2^wMin, each once (the paper's loop visits each
// distinct address 2^|missMask| times).
//
// The range is aligned: start has none of the offset bits set, so
// p = start | x where x runs over the multiples of 2^wMin below
// end − start, which are exactly the submasks of (end − start − 1) &^
// (2^wMin − 1); missMask holds only such bits. The distinct addresses
// are therefore start | missMask | x for x a submask of the remaining
// free bits, and stepping x = (x − free) & free walks those submasks in
// ascending order (Knuth, TAOCP Vol. 4A §7.1.3), so the list is sorted.
// A range with no missing page, which is what selectAddresses passes,
// needs no per-address ownership lookup.
func enumerateSelection(pool *alloc.Pool, start, end addr.Phys, wMin uint, missMask uint64) []addr.Phys {
	free := uint64(end-start-1) &^ (uint64(1)<<wMin - 1) &^ missMask
	owned := !pool.PageMiss(start, end)
	var sel []addr.Phys
	if owned {
		sel = make([]addr.Phys, 0, 1<<bits.OnesCount64(free))
	}
	for x := uint64(0); ; x = (x - free) & free {
		if a := start | addr.Phys(missMask|x); owned || pool.Contains(a) {
			sel = append(sel, a)
		}
		if x == free {
			return sel
		}
	}
}

// nextWideningBit picks the lowest detected row bit not yet used that
// keeps the widened span coverable by the allocation's primary chunk.
func (t *Tool) nextWideningBit(coarse *coarseResult, used []uint, bMax uint) (uint, bool) {
	usedSet := addr.MaskFromBits(used)
	pStart, pEnd := t.target.Pool().PrimaryRange()
	span := uint64(pEnd - pStart)
	for _, b := range coarse.rowBits {
		if usedSet&(uint64(1)<<b) != 0 {
			continue
		}
		top := b
		if bMax > top {
			top = bMax
		}
		if uint64(1)<<(top+1) > span {
			return 0, false // would outgrow the contiguous chunk
		}
		return b, true
	}
	return 0, false
}
