package linalg

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// rankRef is the Gaussian elimination Rank and InSpan ran before the
// pivot table: it destructively computes the rank of rows.
func rankRef(rows []Vec) int {
	r := 0
	for col := 63; col >= 0; col-- {
		bit := uint64(1) << uint(col)
		pivot := -1
		for i := r; i < len(rows); i++ {
			if rows[i]&bit != 0 {
				pivot = i
				break
			}
		}
		if pivot < 0 {
			continue
		}
		rows[r], rows[pivot] = rows[pivot], rows[r]
		for i := 0; i < len(rows); i++ {
			if i != r && rows[i]&bit != 0 {
				rows[i] ^= rows[r]
			}
		}
		r++
		if r == len(rows) {
			break
		}
	}
	return r
}

// inSpanRef is the InSpan that eliminated twice.
func inSpanRef(rows []Vec, v Vec) bool {
	if v == 0 {
		return true
	}
	rows = append([]Vec(nil), rows...)
	base := rankRef(rows)
	return rankRef(append(rows, v)) == base
}

// minimizeByWeightRef is the rank-based MinimizeByWeight the pivot
// table replaced. It is kept as the reference.
func minimizeByWeightRef(cands []Vec) []Vec {
	sorted := append([]Vec(nil), cands...)
	sort.Slice(sorted, func(i, j int) bool {
		pi, pj := bits.OnesCount64(sorted[i]), bits.OnesCount64(sorted[j])
		if pi != pj {
			return pi < pj
		}
		return sorted[i] < sorted[j]
	})
	var picked, out []Vec
	for _, v := range sorted {
		if v == 0 || inSpanRef(picked, v) {
			continue
		}
		picked = append(picked, v)
		out = append(out, v)
	}
	return out
}

// randomCands draws a candidate set holding zeros, duplicates, vectors
// dependent on earlier ones and vectors with bit 63 set, over a narrow
// bit range or the whole word.
func randomCands(rng *rand.Rand) []Vec {
	width := []uint64{0xff, 0x3fffff, ^uint64(0)}[rng.Intn(3)]
	cands := make([]Vec, 1+rng.Intn(24))
	for i := range cands {
		switch rng.Intn(6) {
		case 0: // zero
		case 1: // a duplicate
			if i > 0 {
				cands[i] = cands[rng.Intn(i)]
			}
		case 2: // a combination of earlier candidates
			for j := 0; j < i; j++ {
				if rng.Intn(2) == 0 {
					cands[i] ^= cands[j]
				}
			}
		case 3: // bit 63
			cands[i] = rng.Uint64()&width | 1<<63
		default:
			cands[i] = rng.Uint64() & width
		}
	}
	return cands
}

// TestMinimizeByWeightMatchesReference: the pivot table picks what the
// rank-based greedy picks, and Rank and InSpan read what elimination
// reads.
func TestMinimizeByWeightMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 5000; trial++ {
		cands := randomCands(rng)
		if got, want := MinimizeByWeight(cands), minimizeByWeightRef(cands); !slices.Equal(got, want) {
			t.Fatalf("candidates %#x: picked %#x, reference %#x", cands, got, want)
		}
		m := NewMatrix(cands...)
		if got, want := m.Rank(), rankRef(slices.Clone(cands)); got != want {
			t.Fatalf("candidates %#x: rank %d, reference %d", cands, got, want)
		}
		for i := 0; i < 8; i++ {
			v := rng.Uint64() >> rng.Intn(64)
			if i%2 == 0 { // a combination, in the span
				v = 0
				for _, c := range cands {
					if rng.Intn(2) == 0 {
						v ^= c
					}
				}
			}
			if got, want := m.InSpan(v), inSpanRef(cands, v); got != want {
				t.Fatalf("candidates %#x: InSpan(%#x) = %v, reference %v", cands, v, got, want)
			}
		}
	}

	// A whole span of 16 vectors, as Canonicalize hands one over.
	basis := make([]Vec, 16)
	for i := range basis {
		basis[i] = rng.Uint64()&0xffffffffff | uint64(i%4/3)<<63
	}
	span := make([]Vec, 0, 1<<16-1)
	for sel := 1; sel < 1<<16; sel++ {
		var v Vec
		for i, b := range basis {
			if sel>>i&1 != 0 {
				v ^= b
			}
		}
		span = append(span, v)
	}
	if got, want := MinimizeByWeight(span), minimizeByWeightRef(span); !slices.Equal(got, want) {
		t.Fatalf("2^16−1-element span: picked %#x, reference %#x", got, want)
	}
}

// FuzzMinimizeByWeight reads 9-byte records: a tag byte, then a
// little-endian vector that the tag keeps, narrows, sets bit 63 in or
// replaces by the combination of earlier candidates its bits select.
func FuzzMinimizeByWeight(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 3, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{3, 0xff, 0, 0, 0, 0, 0, 0, 0x80, 2, 0x12, 0x34, 0, 0, 0, 0, 0, 0, 1, 0xff, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var cands []Vec
		for ; len(data) >= 9; data = data[9:] {
			v := binary.LittleEndian.Uint64(data[1:9])
			switch data[0] % 4 {
			case 1:
				sel := v
				v = 0
				for j, c := range cands {
					if j < 64 && sel>>j&1 != 0 {
						v ^= c
					}
				}
			case 2:
				v &= 0xffff
			case 3:
				v |= 1 << 63
			}
			cands = append(cands, v)
		}
		if got, want := MinimizeByWeight(cands), minimizeByWeightRef(cands); !slices.Equal(got, want) {
			t.Fatalf("candidates %#x: picked %#x, reference %#x", cands, got, want)
		}
	})
}
