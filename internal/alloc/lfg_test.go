package alloc

import (
	"math/rand"
	"testing"
)

// lfgSeeds are the seeds the generator is compared on: a few edge seeds
// and the allocation seeds of the paper's nine settings at campaign
// seeds 1 and 42 (a campaign runs setting No at machine seed
// campaign·131 + No, and machine.Surface allocates at machine seed ·
// 1048583 + No).
func lfgSeeds() []int64 {
	seeds := []int64{0, 1, -7, 1 << 40}
	for _, campaign := range []int64{1, 42} {
		for no := int64(1); no <= 9; no++ {
			seeds = append(seeds, (campaign*131+no)*1048583+no)
		}
	}
	return seeds
}

// TestLFGMatchesMathRand: the block generator draws what math/rand draws
// for the same seed, over a million interleaved draws of every kind
// NewPool makes and the plain Int63 under them. A run of holes is
// compared page by page with Float64 against the probability its bound
// stands for.
func TestLFGMatchesMathRand(t *testing.T) {
	const draws = 1_000_000
	var dst [4]uint64
	for _, seed := range lfgSeeds() {
		var g lfg
		g.seed(seed)
		ref := rand.New(rand.NewSource(seed))
		ops := rand.New(rand.NewSource(seed ^ 0x5eed))
		for i := 0; i < draws; i++ {
			switch op := ops.Intn(5); op {
			case 0:
				if a, b := g.int63(), ref.Int63(); a != b {
					t.Fatalf("seed %d draw %d: Int63 %d, math/rand %d", seed, i, a, b)
				}
			case 1: // up to four words of holes, at a random probability
				p := ops.Float64()
				pages := 1 + uint64(ops.Intn(len(dst)*64))
				g.holes(dst[:(pages+63)/64], pages, floatBound(p))
				for k := uint64(0); k < pages; k++ {
					if a, b := dst[k/64]>>(k%64)&1 != 0, ref.Float64() < p; a != b {
						t.Fatalf("seed %d draw %d: page %d of %d a hole %v, Float64 < %v %v", seed, i, k, pages, a, p, b)
					}
				}
				i += int(pages) - 1
			case 2: // a power of two, 1 included
				n := int64(1) << ops.Intn(63)
				if a, b := g.int63n(n), ref.Int63n(n); a != b {
					t.Fatalf("seed %d draw %d: Int63n(%d) %d, math/rand %d", seed, i, n, a, b)
				}
			case 3: // a slot count like NewPool's
				n := 3 + 2*ops.Int63n(1024)
				if a, b := g.int63n(n), ref.Int63n(n); a != b {
					t.Fatalf("seed %d draw %d: Int63n(%d) %d, math/rand %d", seed, i, n, a, b)
				}
			default: // just past a power of two, which rejects up to half the draws
				n := int64(1)<<(32+ops.Intn(31)) + 1 + ops.Int63n(1<<20)
				if a, b := g.int63n(n), ref.Int63n(n); a != b {
					t.Fatalf("seed %d draw %d: Int63n(%d) %d, math/rand %d", seed, i, n, a, b)
				}
			}
		}
	}
}

// TestFloatBoundEdges: the integer bounds split the draws exactly where
// the float tests do.
func TestFloatBoundEdges(t *testing.T) {
	below := func(v int64, p float64) bool { return float64(v)/(1<<63) < p }
	for _, p := range []float64{0.02, 0.05, 0.1, 0.2} {
		b := floatBound(p)
		if !below(b-1, p) || below(b, p) {
			t.Errorf("HoleProb %v: bound %d, but the float test reads %v at bound−1 and %v at bound", p, b, below(b-1, p), below(b, p))
		}
	}
	if one := func(v int64) bool { return float64(v)/(1<<63) == 1 }; one(floatOne-1) || !one(floatOne) {
		t.Errorf("redraw bound %d: Float64 rounds bound−1 to 1: %v, bound to 1: %v", floatOne, one(floatOne-1), one(floatOne))
	}
	if floatOne != 1<<63-512 {
		t.Errorf("redraw bound %d, want 2^63−512", floatOne)
	}
}
