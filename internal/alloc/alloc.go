// Package alloc simulates the physical-memory view a userspace
// reverse-engineering tool obtains on Linux: a set of 4 KiB physical page
// frames it has allocated and translated via /proc/self/pagemap (or THP /
// hugepage allocations).
//
// Algorithm 1 of the paper walks this page set looking for a physically
// contiguous range covering all candidate bank bits, retrying when pages
// are missing — so the allocator supports fragmentation injection to
// exercise that retry path, plus a scattered-chunk layout mirroring how a
// real buddy allocator hands out memory.
package alloc

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"

	"dramdig/internal/addr"
)

// PageSize is the simulated page size (4 KiB, like the paper's systems).
const PageSize uint64 = 4096

// Config controls the simulated allocation.
type Config struct {
	// MemBytes is the machine's physical memory size.
	MemBytes uint64
	// PrimaryBytes is the size of the largest physically contiguous
	// chunk the process obtained (hugepage/THP-backed). Algorithm 1
	// needs this to cover the bank-bit range (≤ 8 MiB on the paper's
	// machines); real tools allocate tens of MiB.
	PrimaryBytes uint64
	// ScatterChunks and ScatterChunkBytes describe additional
	// contiguous chunks scattered across the address space, as a buddy
	// allocator produces. They give the tool reach to higher address
	// bits.
	ScatterChunks     int
	ScatterChunkBytes uint64
	// HoleProb is the probability that any given page of a chunk is
	// missing (stolen by another process / not faulted in). The
	// primary chunk is kept hole-free unless FragmentPrimary is set.
	HoleProb float64
	// FragmentPrimary also applies HoleProb to the primary chunk,
	// exercising Algorithm 1's retry path.
	FragmentPrimary bool
}

// DefaultConfig returns the allocation shape used across experiments:
// one 64 MiB contiguous region plus 24 scattered 8 MiB chunks.
func DefaultConfig(memBytes uint64) Config {
	return Config{
		MemBytes:          memBytes,
		PrimaryBytes:      64 << 20,
		ScatterChunks:     24,
		ScatterChunkBytes: 8 << 20,
		HoleProb:          0.02,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.MemBytes == 0 || c.MemBytes&(c.MemBytes-1) != 0 {
		return fmt.Errorf("alloc: MemBytes %d is not a power of two", c.MemBytes)
	}
	if c.PrimaryBytes == 0 || c.PrimaryBytes%PageSize != 0 {
		return fmt.Errorf("alloc: PrimaryBytes %d is not a positive page multiple", c.PrimaryBytes)
	}
	if c.PrimaryBytes > c.MemBytes/2 {
		return fmt.Errorf("alloc: PrimaryBytes %d exceeds half of memory %d", c.PrimaryBytes, c.MemBytes)
	}
	if c.ScatterChunks < 0 || (c.ScatterChunks > 0 && (c.ScatterChunkBytes == 0 || c.ScatterChunkBytes%PageSize != 0)) {
		return fmt.Errorf("alloc: invalid scatter configuration")
	}
	if c.ScatterChunks > 0 && c.ScatterChunkBytes > c.MemBytes {
		return fmt.Errorf("alloc: ScatterChunkBytes %d exceeds memory %d", c.ScatterChunkBytes, c.MemBytes)
	}
	if c.HoleProb < 0 || c.HoleProb >= 1 {
		return fmt.Errorf("alloc: HoleProb %v outside [0,1)", c.HoleProb)
	}
	return nil
}

// Pool is the set of physical pages the tool owns.
//
// The page list is sorted and holds no duplicates. That is the whole
// index: membership is a binary search, and n consecutive pages from s
// are all present exactly when s is and the entry n−1 slots after it is
// the last of them.
type Pool struct {
	cfg     Config
	pages   []addr.Phys                    // page-aligned base addresses, sorted, unique
	primary struct{ start, end addr.Phys } // [start, end): the primary chunk span
}

// NewPool simulates the allocation. The layout is deterministic in rng.
func NewPool(cfg Config, rng *rand.Rand) (*Pool, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Pool{cfg: cfg}

	// Every page of a holed chunk draws from rng, in chunk order, even
	// when an earlier chunk already holds it: a seed always yields the
	// same layout, so recorded traces replay. Each chunk marks its holes
	// in a bitmap; the pages are written once, in address order, below.
	chunks := make([]chunk, 0, 1+cfg.ScatterChunks)
	addChunk := func(base addr.Phys, bytes uint64, holes bool) {
		c := chunk{base: base, pages: bytes / PageSize}
		c.holes = make([]uint64, (c.pages+63)/64)
		if holes && cfg.HoleProb > 0 {
			for i := uint64(0); i < c.pages; i++ {
				if rng.Float64() < cfg.HoleProb {
					c.holes[i/64] |= 1 << (i % 64)
				}
			}
		}
		chunks = append(chunks, c)
	}

	// Primary chunk: aligned to its own size so that low-bit ranges are
	// fully covered, placed at a random aligned slot in the lower half
	// of memory (the kernel rarely hands out the very top).
	align := cfg.PrimaryBytes
	slots := cfg.MemBytes / 2 / align
	if slots == 0 {
		return nil, fmt.Errorf("alloc: memory too small for primary chunk")
	}
	base := addr.Phys(uint64(rng.Int63n(int64(slots))) * align)
	p.primary.start, p.primary.end = base, base+addr.Phys(cfg.PrimaryBytes)
	addChunk(base, cfg.PrimaryBytes, cfg.FragmentPrimary)

	// Scattered chunks across the whole space.
	for i := 0; i < cfg.ScatterChunks; i++ {
		cAlign := cfg.ScatterChunkBytes
		cSlots := cfg.MemBytes / cAlign
		cBase := addr.Phys(uint64(rng.Int63n(int64(cSlots))) * cAlign)
		addChunk(cBase, cfg.ScatterChunkBytes, true)
	}

	// Chunks whose spans overlap (the same slot, one inside the primary,
	// or straddling a boundary when the sizes do not nest) form one run,
	// and a page of a run is owned when any of its chunks holds it.
	// Writing runs in base order lists every page once, ascending.
	slices.SortFunc(chunks, func(a, b chunk) int { return cmp.Compare(a.base, b.base) })
	p.pages = make([]addr.Phys, 0, (cfg.PrimaryBytes+uint64(cfg.ScatterChunks)*cfg.ScatterChunkBytes)/PageSize)
	for i := 0; i < len(chunks); {
		run := chunks[i]
		j := i + 1
		for ; j < len(chunks) && chunks[j].base < run.end(); j++ {
			run.pages = max(run.pages, uint64(chunks[j].end()-run.base)/PageSize)
		}
		if j > i+1 {
			run.holes = unionHoles(run, chunks[i:j])
		}
		p.pages = run.appendPages(p.pages)
		i = j
	}
	return p, nil
}

// chunk is one contiguous allocation of pages from base.
type chunk struct {
	base  addr.Phys
	pages uint64
	holes []uint64 // bit k set: page k is missing
}

func (c chunk) end() addr.Phys { return c.base + addr.Phys(c.pages*PageSize) }

func (c chunk) hole(k uint64) bool { return c.holes[k/64]&(1<<(k%64)) != 0 }

// appendPages appends the pages c holds to dst, ascending.
func (c chunk) appendPages(dst []addr.Phys) []addr.Phys {
	for w, h := range c.holes {
		owned := ^h
		if rest := c.pages - uint64(w)*64; rest < 64 {
			owned &= 1<<rest - 1
		}
		for ; owned != 0; owned &= owned - 1 {
			k := uint64(w)*64 + uint64(bits.TrailingZeros64(owned))
			dst = append(dst, c.base+addr.Phys(k*PageSize))
		}
	}
	return dst
}

// unionHoles returns the holes of run, which spans the overlapping
// chunks cs: a page is missing only when no chunk covering it holds it.
func unionHoles(run chunk, cs []chunk) []uint64 {
	holes := make([]uint64, (run.pages+63)/64)
	for k := range holes {
		holes[k] = ^uint64(0)
	}
	for _, c := range cs {
		off := uint64(c.base-run.base) / PageSize
		for k := uint64(0); k < c.pages; k++ {
			if !c.hole(k) {
				holes[(off+k)/64] &^= 1 << ((off + k) % 64)
			}
		}
	}
	return holes
}

// Pages returns the sorted physical page frames (base addresses). The
// caller must not modify the slice.
func (p *Pool) Pages() []addr.Phys { return p.pages }

// NumPages returns the page count.
func (p *Pool) NumPages() int { return len(p.pages) }

// Bytes returns the total allocated bytes.
func (p *Pool) Bytes() uint64 { return uint64(len(p.pages)) * PageSize }

// Config returns the allocation configuration.
func (p *Pool) Config() Config { return p.cfg }

// ContainsPage reports whether the page containing the address is
// allocated.
func (p *Pool) ContainsPage(a addr.Phys) bool {
	_, ok := slices.BinarySearch(p.pages, a&^addr.Phys(PageSize-1))
	return ok
}

// Contains reports whether the byte address is inside allocated memory
// (alias of ContainsPage; addresses are valid at byte granularity inside
// an owned page).
func (p *Pool) Contains(a addr.Phys) bool { return p.ContainsPage(a) }

// PageMiss reports whether any page in [start, end) is missing from the
// pool — the page_miss predicate of the paper's Algorithm 1.
func (p *Pool) PageMiss(start, end addr.Phys) bool {
	start = start &^ addr.Phys(PageSize-1)
	if start >= end {
		return false
	}
	last := (end - 1) &^ addr.Phys(PageSize-1)
	i, ok := slices.BinarySearch(p.pages, start)
	j := i + int((last-start)/addr.Phys(PageSize))
	return !ok || j >= len(p.pages) || p.pages[j] != last
}

// MaxPhys returns one past the highest allocated byte.
func (p *Pool) MaxPhys() addr.Phys {
	if len(p.pages) == 0 {
		return 0
	}
	return p.pages[len(p.pages)-1] + addr.Phys(PageSize)
}

// PrimaryRange returns the span [start, end) of the primary contiguous
// chunk. Tools use it the way real ones use a hugepage-backed buffer.
func (p *Pool) PrimaryRange() (start, end addr.Phys) {
	return p.primary.start, p.primary.end
}

// RandomAddr draws a uniformly random byte address within a random
// allocated page, aligned to align bytes (align must divide PageSize and
// be a power of two).
func (p *Pool) RandomAddr(rng *rand.Rand, align uint64) addr.Phys {
	if align == 0 || PageSize%align != 0 {
		panic(fmt.Sprintf("alloc: bad alignment %d", align))
	}
	pg := p.pages[rng.Intn(len(p.pages))]
	off := uint64(rng.Int63n(int64(PageSize/align))) * align
	return pg + addr.Phys(off)
}
