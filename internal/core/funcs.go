// Step 2c of DRAMDig: bank address function detection (paper
// Algorithm 3). Every non-empty XOR mask over the candidate bank bits is
// tested for constancy within each pile; candidates are prioritized by
// width (fewer bits first), redundant linear combinations are removed via
// GF(2) span checks, and the final set must number the piles injectively
// (0 … #banks−1 when all banks were found).
//
// The constancy test scores all 2^|B| masks of a pile at once with a
// Walsh–Hadamard transform. A mask m agrees with member a exactly when
// parity((a ⊕ rep) ∧ m) = 0. With h the histogram of the members'
// (a ⊕ rep) restricted to B, the transform W[m] = Σ_x h[x]·(−1)^|x ∧ m|
// counts agreeing minus disagreeing members, so agree(m) = (N + W[m]) / 2.
// That is |B|·2^|B| additions per pile instead of 2^|B| passes over its
// members, and the counts are the same exact integers.

package core

import (
	"fmt"
	"math/bits"

	"dramdig/internal/addr"
	"dramdig/internal/linalg"
)

// maxBankCandidateBits bounds the mask enumeration (2^n masks). The
// paper's settings need at most 14.
const maxBankCandidateBits = 16

const (
	// pileAgreeFrac is the fraction of a pile's members that must agree
	// on a mask's parity for the mask to count as constant on that pile;
	// it tolerates partition contamination.
	pileAgreeFrac = 0.95
	// funcPileFrac is the fraction of piles a mask must be constant on
	// to become a candidate function.
	funcPileFrac = 0.9
)

// resolve runs Step 2c on the piles partition returned. When the early
// stop verified functions on exactly these piles, those are what
// Algorithm 3 returns on them, so they are reused rather than scored
// again. The nominal cost of scoring is charged all the same: the
// resolve step's simulated time, the drift guard's clock and so every
// later measurement stay what running Algorithm 3 again leaves them.
func (t *Tool) resolve(piles []*pile, verified []uint64, bankBits []uint, banks int) ([]uint64, error) {
	if verified == nil {
		return t.resolveFuncs(piles, bankBits, banks)
	}
	t.chargeMasks(bits.OnesCount64(addr.MaskFromBits(bankBits)), len(piles))
	return verified, nil
}

// resolveFuncs runs Algorithm 3 over the piles.
func (t *Tool) resolveFuncs(piles []*pile, bankBits []uint, banks int) ([]uint64, error) {
	tl, err := newTally(bankBits, pileAgreeFrac)
	if err != nil {
		return nil, err
	}
	for _, p := range piles {
		tl.add(p)
	}
	return t.resolveTallied(tl, piles, banks)
}

// resolveTallied runs Algorithm 3 on the piles tl has scored.
func (t *Tool) resolveTallied(tl *tally, piles []*pile, banks int) ([]uint64, error) {
	L := log2int(banks)
	if L == 0 {
		return nil, fmt.Errorf("single-bank system has no bank functions")
	}
	t.chargeMasks(len(tl.bits), len(piles))

	need := int(funcPileFrac * float64(len(piles)))
	if need < 1 {
		need = 1
	}
	var candidates []uint64
	for m, n := range tl.counts {
		if m != 0 && n >= need {
			candidates = append(candidates, uint64(addr.Phys(0).Deposit(tl.bits, uint64(m))))
		}
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("no XOR mask is constant across the piles; partition failed")
	}

	// Prioritize narrow functions and drop linear combinations.
	cands := linalg.MinimizeByWeight(candidates)
	if len(cands) < L {
		return nil, fmt.Errorf("only %d independent functions found, need log2(%d banks) = %d: %v",
			len(cands), banks, L, formatFuncs(cands))
	}
	if len(cands) == L {
		if !t.numberingValid(piles, cands, banks) {
			return nil, fmt.Errorf("functions %s do not number the piles injectively", formatFuncs(cands))
		}
		return cands, nil
	}

	// More independent candidates than functions: test every
	// combination of L of them (in priority order) for valid numbering.
	idxs := make([]uint, len(cands))
	for i := range idxs {
		idxs[i] = uint(i)
	}
	var chosen []uint64
	addr.Combinations(idxs, L, func(sel uint64) bool {
		var try []uint64
		for _, i := range addr.BitsFromMask(sel) {
			try = append(try, cands[i])
		}
		if t.numberingValid(piles, try, banks) {
			chosen = try
			return false
		}
		return true
	})
	if chosen == nil {
		return nil, fmt.Errorf("no combination of %d of %d candidate functions numbers the piles", L, len(cands))
	}
	return chosen, nil
}

// chargeMasks advances the clock by the nominal cost of scoring every
// non-empty mask over nBits candidate bits on the given number of piles:
// mask evaluation is tool-side CPU work.
func (t *Tool) chargeMasks(nBits, piles int) {
	nMasks := 1<<nBits - 1
	t.target.AdvanceClock(float64(nMasks*piles) * 50)
}

// tally counts, for every mask over bits (bit i of the index selects
// physical bit bits[i]), the piles on which at least frac of the
// members, the representative included, agree with the representative's
// parity under that mask. Piles are added one at a time, each scored
// once, and the buffers live as long as the tally.
type tally struct {
	bits   []uint
	frac   float64
	counts []int
	agree  []int32
}

// newTally returns an empty tally over the distinct candidate bits.
func newTally(bankBits []uint, frac float64) (*tally, error) {
	if len(bankBits) > maxBankCandidateBits {
		return nil, fmt.Errorf("%d bank-bit candidates exceed enumeration limit %d",
			len(bankBits), maxBankCandidateBits)
	}
	bits := addr.BitsFromMask(addr.MaskFromBits(bankBits))
	return &tally{
		bits:   bits,
		frac:   frac,
		counts: make([]int, 1<<len(bits)),
		agree:  make([]int32, 1<<len(bits)),
	}, nil
}

// add scores one pile.
func (tl *tally) add(p *pile) {
	pileAgreement(tl.agree, p, tl.bits)
	n := float64(1 + len(p.members))
	for m, a := range tl.agree {
		if float64(a) >= tl.frac*n {
			tl.counts[m]++
		}
	}
}

// reset forgets every pile added so far.
func (tl *tally) reset() { clear(tl.counts) }

// pileAgreement fills agree, of length 2^len(bits), with the number of
// the pile's addresses (representative included) whose parity under each
// mask over bits equals the representative's.
func pileAgreement(agree []int32, p *pile, bits []uint) {
	clear(agree)
	agree[0] = 1 // the representative: rep ⊕ rep = 0
	for _, a := range p.members {
		agree[(a^p.rep).Extract(bits)]++
	}
	walshHadamard(agree)
	n := int32(1 + len(p.members))
	for m, w := range agree {
		agree[m] = (n + w) / 2
	}
}

// walshHadamard transforms w in place: afterwards
// w[m] = Σ_x w_before[x]·(−1)^popcount(x ∧ m). len(w) is a power of two.
func walshHadamard(w []int32) {
	for h := 1; h < len(w); h <<= 1 {
		for i := 0; i < len(w); i += h << 1 {
			lo, hi := w[i:i+h], w[i+h:i+2*h]
			for j := range lo {
				lo[j], hi[j] = lo[j]+hi[j], lo[j]-hi[j]
			}
		}
	}
}

// numberingValid checks that the functions assign distinct bank numbers
// to the pile representatives, and — when every bank was found — that the
// numbers cover 0 … #banks−1.
func (t *Tool) numberingValid(piles []*pile, funcs []uint64, banks int) bool {
	if mat := linalg.NewMatrix(funcs...); !mat.Independent() {
		return false
	}
	seen := make(map[uint64]bool, len(piles))
	for _, p := range piles {
		var num uint64
		for i, f := range funcs {
			num |= p.rep.XorFold(f) << uint(i)
		}
		if num >= uint64(banks) || seen[num] {
			return false
		}
		seen[num] = true
	}
	// Distinct values below #banks for #banks piles necessarily cover
	// the full range; for fewer piles injectivity is the criterion.
	return true
}
