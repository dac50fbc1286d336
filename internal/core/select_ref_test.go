package core

import (
	"math/rand"
	"slices"
	"testing"

	"dramdig/internal/addr"
	"dramdig/internal/alloc"
)

// enumerateSelectionRef is the map-deduplicated enumeration
// enumerateSelection replaced. It is kept as the reference.
func enumerateSelectionRef(pool *alloc.Pool, start, end addr.Phys, wMin uint, missMask uint64) []addr.Phys {
	seen := make(map[addr.Phys]struct{})
	var sel []addr.Phys
	for p := start; p < end; p += addr.Phys(uint64(1) << wMin) {
		pp := p | addr.Phys(missMask)
		if _, dup := seen[pp]; dup {
			continue
		}
		if !pool.Contains(pp) {
			continue
		}
		seen[pp] = struct{}{}
		sel = append(sel, pp)
	}
	return sel
}

// TestEnumerateSelectionMatchesMap draws ranges the way selectAddresses
// aligns them, around random owned pages, with random miss masks. On the
// holed pool almost every range longer than a page misses one, so its
// addresses are looked up; on the pool with no holes almost every range
// is wholly owned and takes the walk without lookups.
func TestEnumerateSelectionMatchesMap(t *testing.T) {
	holed := alloc.DefaultConfig(8 << 30)
	holed.HoleProb = 0.2
	solid := alloc.DefaultConfig(8 << 30)
	solid.HoleProb = 0
	for _, tc := range []struct {
		name                string
		cfg                 alloc.Config
		poolSeed, rangeSeed int64
	}{
		{"holes", holed, 21, 22},
		{"owned", solid, 23, 24},
	} {
		pool, err := alloc.NewPool(tc.cfg, tc.poolSeed)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(tc.rangeSeed))
		pages := slices.Collect(pool.All())
		total, owned := 0, 0
		for i := 0; i < 400; i++ {
			wMin := uint(6 + rng.Intn(9))
			wMax := wMin + uint(rng.Intn(10))
			var missMask uint64
			for b := wMin + 1; b < wMax; b++ {
				if rng.Intn(2) == 0 {
					missMask |= 1 << b
				}
			}
			pageMask := addr.RangeMask(wMin, wMax) &^ (alloc.PageSize - 1)
			start := pages[rng.Intn(len(pages))] &^ addr.Phys(pageMask)
			end := start + addr.Phys(pageMask+alloc.PageSize)
			got := enumerateSelection(pool, start, end, wMin, missMask)
			want := enumerateSelectionRef(pool, start, end, wMin, missMask)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: bits %d..%d miss %#x from %v: %d addresses, reference %d", tc.name, wMin, wMax, missMask, start, len(got), len(want))
			}
			total += len(want)
			if !pool.PageMiss(start, end) {
				owned++
			}
		}
		if total == 0 {
			t.Fatalf("%s: no range selected any address", tc.name)
		}
		if owned == 0 || owned == 400 {
			t.Fatalf("%s: %d of 400 ranges wholly owned; both paths must be compared", tc.name, owned)
		}
	}
}
