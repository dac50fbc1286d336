// Step 3 of DRAMDig: fine-grained row and column bit detection (paper
// §III-E). The coarse step cannot see row/column bits that also feed bank
// functions ("shared bits"); with the functions resolved and the chip
// specification giving exact row/column bit counts, this step classifies
// every remaining bank-candidate bit as shared-row, shared-column or
// bank-only.
//
// Shared-row verification generalizes the paper's two-bit-function flip:
// flipping both bits of a function keeps the bank only when no *other*
// function contains either bit. The sound construction is a kernel mask:
// a bit set μ containing the candidate bit x plus compensation bits such
// that every bank function is parity-preserved. The pair (p, p⊕μ) is then
// same-bank by construction, and a measured row-buffer conflict proves μ
// contains a row bit; compensation bits are drawn only from bits that
// cannot be row bits (they sit below the row region), so the conflict
// pins x itself. On settings whose functions share no bits (e.g. the
// paper's No.1/No.3/No.4) the kernel mask degenerates to exactly the
// paper's two-bit flip.
//
// Shared-column classification follows the paper: the chip spec says how
// many column bits are still missing; candidates are taken lowest-first,
// excluding the lowest bit of the (unique) widest function of the
// canonical basis — the paper's empirical observation that since Ivy
// Bridge that bit is not a column bit.

package core

import (
	"fmt"
	"sort"

	"dramdig/internal/addr"
	"dramdig/internal/linalg"
	"dramdig/internal/mapping"
	"dramdig/internal/sysinfo"
)

// fineResult is Step 3's output.
type fineResult struct {
	sharedRow []uint
	sharedCol []uint
	bankOnly  []uint
}

// fineDetect runs Step 3.
func (t *Tool) fineDetect(info sysinfo.Info, coarse *coarseResult, funcs []uint64) (*fineResult, error) {
	specRow := info.Chip.PhysRowBits()
	specCol := info.Chip.PhysColBits()
	knownRow := len(coarse.rowBits) + len(coarse.assumedRow)
	knownCol := len(coarse.colBits)
	remRow := specRow - knownRow
	remCol := specCol - knownCol
	if remRow < 0 {
		return nil, fmt.Errorf("detected %d row bits but spec says %d", knownRow, specRow)
	}
	if remCol < 0 {
		return nil, fmt.Errorf("detected %d column bits but spec says %d", knownCol, specCol)
	}

	unclassified := append([]uint(nil), coarse.bankBits...)
	sort.Slice(unclassified, func(i, j int) bool { return unclassified[i] < unclassified[j] })
	res := &fineResult{}

	// ---- Shared row bits -------------------------------------------
	// Row bits occupy the top of the physical space on every documented
	// Intel configuration, so the missing row bits are the highest
	// unclassified bits, directly below the lowest known row bit.
	if remRow > len(unclassified) {
		return nil, fmt.Errorf("%d row bits missing but only %d unclassified bits remain", remRow, len(unclassified))
	}
	candRow := make([]uint, remRow)
	for i := 0; i < remRow; i++ {
		candRow[i] = unclassified[len(unclassified)-1-i] // descending
	}
	if remRow > 0 {
		minKnown := coarse.physBits
		for _, b := range coarse.rowBits {
			if b < minKnown {
				minKnown = b
			}
		}
		if candRow[0]+1 != minKnown {
			return nil, fmt.Errorf("candidate shared row bit %d not adjacent to known row region starting at %d",
				candRow[0], minKnown)
		}
	}
	lowSet := addr.MaskFromBits(unclassified[:len(unclassified)-remRow])
	for _, x := range candRow {
		mu, ok := t.kernelMask(funcs, x, lowSet)
		if !ok {
			// No same-bank flip exists with safe compensation bits;
			// accept the knowledge-based classification.
			t.logf("fine: bit %d accepted as row by spec counting (no kernel mask)", x)
			res.sharedRow = append(res.sharedRow, x)
			continue
		}
		pairs := t.pairForBit(t.target.Pool(), mu)
		if len(pairs) == 0 {
			return nil, fmt.Errorf("no address pairs for kernel mask %s", addr.FormatBits(addr.BitsFromMask(mu)))
		}
		conflict, err := t.voteConflictGuarded(pairs)
		if err != nil {
			return nil, err
		}
		if !conflict {
			return nil, fmt.Errorf("bit %d expected to be a shared row bit but kernel-mask flip %s shows no conflict",
				x, addr.FormatBits(addr.BitsFromMask(mu)))
		}
		res.sharedRow = append(res.sharedRow, x)
	}
	res.sharedRow = addr.SortedCopy(res.sharedRow)

	// ---- Shared column bits ----------------------------------------
	rowSet := addr.MaskFromBits(res.sharedRow)
	var colCands []uint
	for _, b := range unclassified {
		if rowSet&(uint64(1)<<b) == 0 {
			colCands = append(colCands, b)
		}
	}
	// Empirical observation: the lowest bit of the unique widest
	// function (when wider than two bits) is not a column bit. The
	// rule reads the canonical basis: Algorithm 3 may return any basis
	// of the span, and an equivalent one can have a different widest
	// function, or two of them.
	canon := (&mapping.Mapping{BankFuncs: funcs}).Canonicalize().BankFuncs
	if l, ok := widestFuncLowBit(canon); ok {
		filtered := colCands[:0]
		for _, b := range colCands {
			if b != l {
				filtered = append(filtered, b)
			}
		}
		colCands = filtered
	}
	if remCol > len(colCands) {
		return nil, fmt.Errorf("%d column bits missing but only %d candidates remain", remCol, len(colCands))
	}
	res.sharedCol = addr.SortedCopy(colCands[:remCol])

	colSet := addr.MaskFromBits(res.sharedCol)
	for _, b := range unclassified {
		if rowSet&(uint64(1)<<b) == 0 && colSet&(uint64(1)<<b) == 0 {
			res.bankOnly = append(res.bankOnly, b)
		}
	}
	return res, nil
}

// kernelMask finds μ = {x} ∪ σ with σ ⊆ safe (given as a bit mask) such
// that every function has even overlap with μ — i.e. flipping μ preserves
// the bank. Returns ok=false when no such compensation exists.
func (t *Tool) kernelMask(funcs []uint64, x uint, safe uint64) (uint64, bool) {
	safeBits := addr.BitsFromMask(safe &^ (uint64(1) << x))
	if len(safeBits) > 63 {
		return 0, false
	}
	// Build the system: rows are functions restricted to the safe-bit
	// index space; RHS bit i is function i's coverage of x.
	mat := linalg.NewMatrix()
	var rhs uint64
	for i, f := range funcs {
		var row uint64
		for j, s := range safeBits {
			if f&(uint64(1)<<s) != 0 {
				row |= uint64(1) << uint(j)
			}
		}
		mat.AddRow(row)
		if f&(uint64(1)<<x) != 0 {
			rhs |= uint64(1) << uint(i)
		}
	}
	y, ok := linalg.Solve(mat, rhs)
	if !ok {
		return 0, false
	}
	mu := uint64(1) << x
	for j, s := range safeBits {
		if y&(uint64(1)<<uint(j)) != 0 {
			mu |= uint64(1) << s
		}
	}
	// Self-check: every function must be parity-preserved.
	for _, f := range funcs {
		if addr.Phys(mu).XorFold(f) != 0 {
			return 0, false
		}
	}
	return mu, true
}

// widestFuncLowBit returns the lowest bit of the unique widest function
// when that function has more than two bits.
func widestFuncLowBit(funcs []uint64) (uint, bool) {
	widest, width, unique := uint64(0), 0, false
	for _, f := range funcs {
		w := linalg.Popcount(f)
		switch {
		case w > width:
			widest, width, unique = f, w, true
		case w == width:
			unique = false
		}
	}
	if !unique || width <= 2 {
		return 0, false
	}
	bits := addr.BitsFromMask(widest)
	return bits[0], true
}
