package alloc

import (
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"dramdig/internal/addr"
)

// refPool is the map-indexed pool NewPool replaced: pages are
// deduplicated through a presence map as they are drawn, then sorted.
// It is kept as the reference.
type refPool struct {
	pages   []addr.Phys
	present map[addr.Phys]struct{}
	primary struct{ start, end addr.Phys }
}

func newRefPool(cfg Config, rng *rand.Rand) (*refPool, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &refPool{present: make(map[addr.Phys]struct{})}
	addChunk := func(base addr.Phys, bytes uint64, holes bool) {
		for off := uint64(0); off < bytes; off += PageSize {
			pg := base + addr.Phys(off)
			if holes && cfg.HoleProb > 0 && rng.Float64() < cfg.HoleProb {
				continue
			}
			if _, dup := p.present[pg]; dup {
				continue
			}
			p.present[pg] = struct{}{}
			p.pages = append(p.pages, pg)
		}
	}
	align := cfg.PrimaryBytes
	slots := cfg.MemBytes / 2 / align
	base := addr.Phys(uint64(rng.Int63n(int64(slots))) * align)
	p.primary.start, p.primary.end = base, base+addr.Phys(cfg.PrimaryBytes)
	addChunk(base, cfg.PrimaryBytes, cfg.FragmentPrimary)
	for i := 0; i < cfg.ScatterChunks; i++ {
		cAlign := cfg.ScatterChunkBytes
		cSlots := cfg.MemBytes / cAlign
		cBase := addr.Phys(uint64(rng.Int63n(int64(cSlots))) * cAlign)
		addChunk(cBase, cfg.ScatterChunkBytes, true)
	}
	sort.Slice(p.pages, func(i, j int) bool { return p.pages[i] < p.pages[j] })
	return p, nil
}

func (p *refPool) containsPage(a addr.Phys) bool {
	_, ok := p.present[a&^addr.Phys(PageSize-1)]
	return ok
}

func (p *refPool) pageMiss(start, end addr.Phys) bool {
	start = start &^ addr.Phys(PageSize-1)
	for pg := start; pg < end; pg += addr.Phys(PageSize) {
		if !p.containsPage(pg) {
			return true
		}
	}
	return false
}

// refConfigs are the layouts the reference tests compare on.
func refConfigs() map[string]Config {
	frag := DefaultConfig(8 << 30)
	frag.FragmentPrimary = true
	frag.HoleProb = 0.05
	solid := DefaultConfig(8 << 30)
	solid.HoleProb = 0
	// 32 slots of 8 MiB for 40 chunks: scatter chunks overlap each other
	// and the primary.
	crowded := Config{MemBytes: 256 << 20, PrimaryBytes: 64 << 20, ScatterChunks: 40, ScatterChunkBytes: 8 << 20, HoleProb: 0.1}
	crowdedFrag := crowded
	crowdedFrag.FragmentPrimary = true
	// Chunk sizes that do not nest: 16 MiB chunks straddle the 24 MiB
	// primary's edges and each other's.
	straddling := Config{MemBytes: 256 << 20, PrimaryBytes: 24 << 20, ScatterChunks: 40, ScatterChunkBytes: 16 << 20, HoleProb: 0.1, FragmentPrimary: true}
	straddlingSolid := straddling
	straddlingSolid.HoleProb = 0
	// Chunks of 10 and 3 pages sit off the pool's 64-page word grid, so
	// runs start and end inside words and touching runs share one.
	offGrid := Config{MemBytes: 1 << 20, PrimaryBytes: 10 * PageSize, ScatterChunks: 40, ScatterChunkBytes: 3 * PageSize, HoleProb: 0.1, FragmentPrimary: true}
	// Chunks of 300 and 100 pages span several words off the grid.
	offGridWide := Config{MemBytes: 64 << 20, PrimaryBytes: 300 * PageSize, ScatterChunks: 60, ScatterChunkBytes: 100 * PageSize, HoleProb: 0.05}
	return map[string]Config{
		"default": DefaultConfig(8 << 30), "fragment-primary": frag, "no-holes": solid,
		"crowded": crowded, "crowded-fragmented": crowdedFrag,
		"straddling": straddling, "straddling-no-holes": straddlingSolid,
		"off-grid": offGrid, "off-grid-wide": offGridWide,
	}
}

func TestPoolMatchesReference(t *testing.T) {
	const P = addr.Phys(PageSize)
	for name, cfg := range refConfigs() {
		for seed := int64(1); seed <= 4; seed++ {
			got, err := NewPool(cfg, seed)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := newRefPool(cfg, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(slices.Collect(got.All()), ref.pages) {
				t.Fatalf("%s seed %d: %d pages, reference %d, or a different layout", name, seed, got.NumPages(), len(ref.pages))
			}
			if s, e := got.PrimaryRange(); s != ref.primary.start || e != ref.primary.end {
				t.Fatalf("%s seed %d: primary range differs", name, seed)
			}
			q := rand.New(rand.NewSource(seed))
			pages := ref.pages
			near := func() addr.Phys {
				// An address on, just around or between allocated pages.
				pg := pages[q.Intn(len(pages))] + addr.Phys(q.Intn(5)-2)*P
				return pg + addr.Phys(q.Int63n(int64(2*PageSize))) - P
			}
			for i := 0; i < 3000; i++ {
				a := near()
				if i%10 == 0 {
					a = addr.Phys(q.Uint64() % (cfg.MemBytes + 1<<20))
				}
				if got.ContainsPage(a) != ref.containsPage(a) {
					t.Fatalf("%s seed %d: ContainsPage(%v) = %v", name, seed, a, got.ContainsPage(a))
				}
				start := near()
				var end addr.Phys
				switch i % 4 {
				case 0: // unaligned end, up to 40 pages on
					end = start + addr.Phys(q.Int63n(40*int64(PageSize)))
				case 1: // start >= end
					end = start - addr.Phys(q.Int63n(3*int64(PageSize)))
				case 2: // a whole chunk-sized span from a page boundary
					start &^= P - 1
					end = start + addr.Phys(cfg.ScatterChunkBytes)
				default: // end within the start page
					end = start + addr.Phys(q.Intn(2))
				}
				if got.PageMiss(start, end) != ref.pageMiss(start, end) {
					t.Fatalf("%s seed %d: PageMiss(%v, %v) = %v", name, seed, start, end, got.PageMiss(start, end))
				}
			}
			if s, e := got.PrimaryRange(); got.PageMiss(s, e) != ref.pageMiss(s, e) {
				t.Fatalf("%s seed %d: PageMiss over the primary differs", name, seed)
			}
		}
	}
}

// TestRandomAddrMatchesReference: RandomAddr draws the same addresses
// as indexing the reference's page list, and consumes the same draws.
func TestRandomAddrMatchesReference(t *testing.T) {
	for name, cfg := range refConfigs() {
		for seed := int64(1); seed <= 4; seed++ {
			got, err := NewPool(cfg, seed)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := newRefPool(cfg, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			if got.NumPages() != len(ref.pages) {
				t.Fatalf("%s seed %d: %d pages, reference %d", name, seed, got.NumPages(), len(ref.pages))
			}
			for _, align := range []uint64{64, PageSize} {
				rngA, rngB := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				for i := 0; i < 10000; i++ {
					a := got.RandomAddr(rngA, align)
					b := ref.pages[rngB.Intn(len(ref.pages))] + addr.Phys(uint64(rngB.Int63n(int64(PageSize/align)))*align)
					if a != b {
						t.Fatalf("%s seed %d align %d: draw %d is %v, reference %v", name, seed, align, i, a, b)
					}
				}
				if a, b := rngA.Int63(), rngB.Int63(); a != b {
					t.Fatalf("%s seed %d align %d: rng diverged after the draws", name, seed, align)
				}
			}
		}
	}
}

// TestMatchingMatchesAll: Matching yields exactly the pages of All that
// match the mask, in order, for random masks over the reference layouts:
// masks with bits below the word, masks with none there, masks with a
// sub-page bit (which no page matches) and the empty mask.
func TestMatchingMatchesAll(t *testing.T) {
	for name, cfg := range refConfigs() {
		got, err := NewPool(cfg, 5)
		if err != nil {
			t.Fatal(err)
		}
		all := slices.Collect(got.All())
		rng := rand.New(rand.NewSource(6))
		memBits := 63 - bits.LeadingZeros64(cfg.MemBytes)
		for i := 0; i < 200; i++ {
			var mask uint64
			lo := 12 // page bits
			switch i % 4 {
			case 0: // no bit below the word
				lo = 18
			case 1: // sub-page bits too
				lo = 0
			}
			for b := lo; b < memBits; b++ {
				if rng.Intn(6) == 0 {
					mask |= 1 << b
				}
			}
			if i == 0 {
				mask = 0
			}
			var want []addr.Phys
			for _, pg := range all {
				if uint64(pg)&mask == mask {
					want = append(want, pg)
				}
			}
			if have := slices.Collect(got.Matching(mask)); !slices.Equal(have, want) {
				t.Fatalf("%s mask %#x: %d pages, filtering All %d", name, mask, len(have), len(want))
			}
			// An early break stops the walk.
			for pg := range got.Matching(mask) {
				if pg != want[0] {
					t.Fatalf("%s mask %#x: first page %v, want %v", name, mask, pg, want[0])
				}
				break
			}
		}
	}
}
