package core

import (
	"math/rand"
	"slices"
	"testing"

	"dramdig/internal/addr"
)

// all returns rep plus members.
func (p *pile) all() []addr.Phys {
	return append([]addr.Phys{p.rep}, p.members...)
}

// constCounts scores the piles in one batch, as Algorithm 3 did before
// the tally: for every mask over bits, the number of piles on which at
// least frac of the members, the representative included, agree with
// the representative's parity. It is kept as the tally's reference.
func constCounts(piles []*pile, bits []uint, frac float64) []int {
	counts := make([]int, 1<<len(bits))
	agree := make([]int32, len(counts))
	for _, p := range piles {
		pileAgreement(agree, p, bits)
		n := float64(1 + len(p.members))
		for m, a := range agree {
			if float64(a) >= frac*n {
				counts[m]++
			}
		}
	}
	return counts
}

// constCountsRef is the brute-force mask scoring constCounts replaced:
// every non-empty submask of the candidate bits is tested against every
// member of every pile. It is kept as the reference.
func constCountsRef(piles []*pile, bankBits []uint, frac float64) map[uint64]int {
	bMask := addr.MaskFromBits(bankBits)
	constCount := make(map[uint64]int)
	for _, p := range piles {
		members := p.all()
		addr.SubMasks(bMask, func(mask uint64) bool {
			want := p.rep.XorFold(mask)
			agree := 0
			for _, a := range members {
				if a.XorFold(mask) == want {
					agree++
				}
			}
			if float64(agree) >= frac*float64(len(members)) {
				constCount[mask]++
			}
			return true
		})
	}
	return constCount
}

// hiddenFuncs draws n ≤ len(bits)/2 functions over bits. Function i
// holds bits[i], which no other function uses, so flipping that bit
// changes its parity alone.
func hiddenFuncs(rng *rand.Rand, bits []uint, n int) []uint64 {
	funcs := make([]uint64, n)
	for i := range funcs {
		funcs[i] = 1<<bits[i] | uint64(addr.Phys(0).Deposit(bits[len(bits)/2:], rng.Uint64()))
	}
	return funcs
}

// randomPile draws a pile over the candidate bits. Members after the
// first `dirty` agree with the representative under every hidden
// function; the dirty ones are random, which puts agreement exactly at
// frac when dirty is ⌊(1−frac)·N⌋.
func randomPile(rng *rand.Rand, bits []uint, funcs []uint64, size, dirty int) *pile {
	draw := func() addr.Phys {
		return addr.Phys(0).Deposit(bits, rng.Uint64()) | addr.Phys(rng.Uint64()&^addr.MaskFromBits(bits))
	}
	rep := draw()
	p := &pile{rep: rep}
	for i := 1; i < size; i++ {
		a := draw()
		if i > dirty {
			for j, f := range funcs {
				if a.XorFold(f) != rep.XorFold(f) {
					a ^= 1 << bits[j]
				}
			}
		}
		p.members = append(p.members, a)
	}
	return p
}

func TestConstCountsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const frac = 0.95
	atThreshold := 0 // masks whose agreement is the least that passes
	for nb := 1; nb <= maxBankCandidateBits; nb++ {
		// Candidate bits scattered over [3, 40).
		var mask uint64
		for _, b := range rng.Perm(37)[:nb] {
			mask |= 1 << (b + 3)
		}
		bits := addr.BitsFromMask(mask)
		funcs := hiddenFuncs(rng, bits, nb/2)
		// The brute-force reference costs 2^|B| × size per pile; keep the
		// widest sets to a few piles.
		nPiles := 4
		if nb > 12 {
			nPiles = 1
		}
		var piles []*pile
		for i := 0; i < nPiles; i++ {
			size := []int{1, 2, 20, 40, 1 + rng.Intn(600), 600}[rng.Intn(6)]
			dirty := int((1 - frac) * float64(size))
			if rng.Intn(3) == 0 {
				dirty = rng.Intn(size)
			}
			piles = append(piles, randomPile(rng, bits, funcs, size, dirty))
		}

		agree := make([]int32, 1<<nb)
		for _, p := range piles {
			pileAgreement(agree, p, bits)
			members := p.all()
			for m := range agree {
				mask := uint64(addr.Phys(0).Deposit(bits, uint64(m)))
				want := 0
				for _, a := range members {
					if a.XorFold(mask) == p.rep.XorFold(mask) {
						want++
					}
				}
				if int(agree[m]) != want {
					t.Fatalf("|B|=%d pile of %d: mask %#x agrees on %d, brute force %d", nb, len(members), mask, agree[m], want)
				}
				n := float64(len(members))
				if float64(want) >= frac*n && float64(want-1) < frac*n && want < len(members) {
					atThreshold++
				}
			}
		}

		got := constCounts(piles, bits, frac)
		ref := constCountsRef(piles, bits, frac)
		for m, n := range got {
			mask := uint64(addr.Phys(0).Deposit(bits, uint64(m)))
			if m == 0 {
				continue
			}
			if n != ref[mask] {
				t.Fatalf("|B|=%d: mask %#x constant on %d piles, reference %d", nb, mask, n, ref[mask])
			}
		}
		if len(ref) > len(got)-1 {
			t.Fatalf("|B|=%d: reference scored %d masks, constCounts %d", nb, len(ref), len(got)-1)
		}
	}
	if atThreshold == 0 {
		t.Error("no pile put a mask exactly at the agreement threshold")
	}
	t.Logf("%d masks sat exactly at the threshold", atThreshold)
}

// TestConstCountsAtThreshold pins the boundary: with 19 of 20 members
// agreeing, a mask is constant at pileAgreeFrac 0.95 and not at 0.96.
func TestConstCountsAtThreshold(t *testing.T) {
	bits := []uint{6, 13, 14}
	f := uint64(1<<6 | 1<<13) // holds bits[0] alone, as randomPile needs
	rng := rand.New(rand.NewSource(5))
	p := randomPile(rng, bits, []uint64{f}, 20, 0)
	p.members[0] ^= 1 << 6 // one member breaks f
	m := 0b011             // f over bits {6, 13}
	for _, tc := range []struct {
		frac float64
		want int
	}{{0.95, 1}, {0.96, 0}} {
		if got := constCounts([]*pile{p}, bits, tc.frac)[m]; got != tc.want {
			t.Errorf("frac %v: count %d, want %d", tc.frac, got, tc.want)
		}
		if got := constCountsRef([]*pile{p}, bits, tc.frac)[f]; got != tc.want {
			t.Errorf("reference at frac %v: count %d, want %d", tc.frac, got, tc.want)
		}
	}
}

// TestTallyMatchesConstCounts: a tally fed one pile at a time holds
// constCounts over the piles added so far, at every step and after a
// reset, for |B| from 4 to 14.
func TestTallyMatchesConstCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const frac = 0.95
	for nb := 4; nb <= 14; nb++ {
		var mask uint64
		for _, b := range rng.Perm(37)[:nb] {
			mask |= 1 << (b + 3)
		}
		bits := addr.BitsFromMask(mask)
		funcs := hiddenFuncs(rng, bits, nb/2)
		tl, err := newTally(bits, frac)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			var piles []*pile
			for i := 0; i < 6; i++ {
				size := []int{1, 25, 40, 1 + rng.Intn(300)}[rng.Intn(4)]
				dirty := int((1 - frac) * float64(size))
				if rng.Intn(3) == 0 {
					dirty = rng.Intn(size)
				}
				p := randomPile(rng, bits, funcs, size, dirty)
				piles = append(piles, p)
				tl.add(p)
				if want := constCounts(piles, bits, frac); !slices.Equal(tl.counts, want) {
					t.Fatalf("|B|=%d round %d: tally of %d piles differs from constCounts", nb, round, len(piles))
				}
			}
			tl.reset()
			if slices.ContainsFunc(tl.counts, func(n int) bool { return n != 0 }) {
				t.Fatalf("|B|=%d: reset left counts behind", nb)
			}
		}
	}
}
