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
//
// The layout is deterministic in the allocation seed: chunk slots and
// holes are drawn from math/rand's sequence for that seed, continued a
// block at a time.
//
// The pool is kept as bitmap words of 64 pages, never as a list of
// pages: each chunk draws its holes into a bitmap, and the pool is those
// bitmaps laid on one 64-page grid. Membership is a search over the
// word bases plus a bit test, and the i-th owned page, which a uniform
// draw needs, is a jump-table lookup plus a select inside one word.
package alloc

import (
	"cmp"
	"fmt"
	"iter"
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
// It holds one word for every 64-page-aligned block of 64 pages that
// owns at least one page, in address order. A word's bitmap marks its
// owned pages, and its rank counts the owned pages of all earlier words,
// so the i-th owned page in address order lies in the last word whose
// rank is at most i. jump[j] is the word holding owned page 64j, so the
// word holding page i is jump[i/64], the next one, or, when words are
// sparse, one a few further on. dir cuts memory into at most 1,024
// equal blocks and names each block's first word, so a lookup searches
// one block's words.
type Pool struct {
	cfg      Config
	words    []word                         // ascending bases, each owning a page
	ranks    []int                          // ranks[w]: owned pages before word w; one more entry holds the total
	jump     []int32                        // jump[j]: index of the word holding owned page 64j
	dir      []int32                        // dir[b]: index of the first word at or past block b
	dirShift uint                           // log2 of a block's bytes
	n        int                            // owned pages
	primary  struct{ start, end addr.Phys } // [start, end): the primary chunk span
}

// wordPages is the number of pages one pool word covers, and wordBytes
// their span; a word's base is a multiple of wordBytes.
const (
	wordPages = 64
	wordBytes = addr.Phys(wordPages * PageSize)
)

// word is the pool's bitmap of the 64 pages from base.
type word struct {
	base  addr.Phys // the page of bit 0
	owned uint64    // bit k set: page base + k·PageSize is owned
}

// NewPool simulates the allocation. The layout is deterministic in seed:
// it is the layout drawn by rand.New(rand.NewSource(seed)) calling
// Int63n for each chunk's slot and Float64 for each page of a holed chunk.
func NewPool(cfg Config, seed int64) (*Pool, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Pool{cfg: cfg}
	var rng lfg
	rng.seed(seed)

	// Every page of a holed chunk draws, in chunk order, even when an
	// earlier chunk already holds it: a seed always yields the same
	// layout, so recorded traces replay. A page is a hole when Float64
	// would draw below HoleProb, that is when its draw is below
	// holeBound. Each chunk marks its holes in a bitmap; the words are
	// written once, in address order, below.
	holeBound := floatBound(cfg.HoleProb)
	chunks := make([]chunk, 0, 1+cfg.ScatterChunks)
	addChunk := func(base addr.Phys, bytes uint64, holes bool) {
		c := chunk{base: base, pages: bytes / PageSize}
		c.holes = make([]uint64, (c.pages+63)/64)
		if holes && cfg.HoleProb > 0 {
			rng.holes(c.holes, c.pages, holeBound)
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
	base := addr.Phys(uint64(rng.int63n(int64(slots))) * align)
	p.primary.start, p.primary.end = base, base+addr.Phys(cfg.PrimaryBytes)
	addChunk(base, cfg.PrimaryBytes, cfg.FragmentPrimary)

	// Scattered chunks across the whole space.
	for i := 0; i < cfg.ScatterChunks; i++ {
		cAlign := cfg.ScatterChunkBytes
		cSlots := cfg.MemBytes / cAlign
		cBase := addr.Phys(uint64(rng.int63n(int64(cSlots))) * cAlign)
		addChunk(cBase, cfg.ScatterChunkBytes, true)
	}

	// Chunks whose spans overlap (the same slot, one inside the primary,
	// or straddling a boundary when the sizes do not nest) form one run,
	// and a page of a run is owned when any of its chunks holds it.
	// Runs are disjoint, so writing them in base order writes the words
	// in ascending order; touching runs share a word.
	slices.SortFunc(chunks, func(a, b chunk) int { return cmp.Compare(a.base, b.base) })
	p.words = make([]word, 0, (cfg.PrimaryBytes+uint64(cfg.ScatterChunks)*cfg.ScatterChunkBytes)/uint64(wordBytes)+2*uint64(len(chunks)))
	for i := 0; i < len(chunks); {
		run := chunks[i]
		j := i + 1
		for ; j < len(chunks) && chunks[j].base < run.end(); j++ {
			run.pages = max(run.pages, uint64(chunks[j].end()-run.base)/PageSize)
		}
		if j > i+1 {
			run.holes = unionHoles(run, chunks[i:j])
		}
		p.words = run.appendWords(p.words)
		i = j
	}

	p.index()
	return p, nil
}

// index ranks the words, then builds the jump table and the directory.
func (p *Pool) index() {
	p.ranks = make([]int, len(p.words)+1)
	for i, w := range p.words {
		p.ranks[i] = p.n
		p.n += bits.OnesCount64(w.owned)
	}
	p.ranks[len(p.words)] = p.n
	p.jump = make([]int32, (p.n+wordPages-1)/wordPages)
	w := 0
	for j := range p.jump {
		for p.ranks[w+1] <= j*wordPages {
			w++
		}
		p.jump[j] = int32(w)
	}
	p.dirShift = uint(max(bits.Len64(uint64(wordBytes)), bits.Len64(p.cfg.MemBytes)-dirBlocksLog2) - 1)
	p.dir = make([]int32, p.cfg.MemBytes>>p.dirShift+1)
	w = 0
	for b := range p.dir {
		for w < len(p.words) && uint64(p.words[w].base)>>p.dirShift < uint64(b) {
			w++
		}
		p.dir[b] = int32(w)
	}
}

// dirBlocksLog2 bounds the directory at 2^10 blocks of memory; blocks
// are never smaller than a word.
const dirBlocksLog2 = 10

// chunk is one contiguous allocation of pages from base.
type chunk struct {
	base  addr.Phys
	pages uint64
	holes []uint64 // bit k set: page k is missing
}

func (c chunk) end() addr.Phys { return c.base + addr.Phys(c.pages*PageSize) }

func (c chunk) hole(k uint64) bool { return c.holes[k/64]&(1<<(k%64)) != 0 }

// appendWords lays the pages c holds on the word grid: it ORs them into
// dst's last word when they share it and appends the words past it.
// dst must hold no word beyond c's first.
func (c chunk) appendWords(dst []word) []word {
	shift := uint64(c.base) / PageSize % wordPages
	base := c.base - addr.Phys(shift*PageSize)
	for w, h := range c.holes {
		owned := ^h
		if rest := c.pages - uint64(w)*64; rest < 64 {
			owned &= 1<<rest - 1
		}
		wb := base + addr.Phys(w)*wordBytes
		dst = orWord(dst, wb, owned<<shift)
		if shift > 0 {
			dst = orWord(dst, wb+wordBytes, owned>>(wordPages-shift))
		}
	}
	return dst
}

// orWord ORs owned into the word at base, which is dst's last word or
// lies past it.
func orWord(dst []word, base addr.Phys, owned uint64) []word {
	if owned == 0 {
		return dst
	}
	if n := len(dst); n > 0 && dst[n-1].base == base {
		dst[n-1].owned |= owned
		return dst
	}
	return append(dst, word{base: base, owned: owned})
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

// All yields the owned physical page frames (base addresses) in
// ascending order.
func (p *Pool) All() iter.Seq[addr.Phys] {
	return func(yield func(addr.Phys) bool) {
		for _, w := range p.words {
			for owned := w.owned; owned != 0; owned &= owned - 1 {
				if !yield(w.base + addr.Phys(uint64(bits.TrailingZeros64(owned))*PageSize)) {
					return
				}
			}
		}
	}
}

// Matching yields, in ascending order, the owned pages p with
// p&mask == mask. A word whose base lacks the mask's bits above the
// word holds no such page and is skipped whole.
func (p *Pool) Matching(mask uint64) iter.Seq[addr.Phys] {
	high := mask &^ uint64(wordBytes-1)
	// in: bit k set when page k of a word has the mask's bits below the
	// word; none has when the mask holds a sub-page bit.
	var in uint64
	for k := uint64(0); k < wordPages; k++ {
		if k*PageSize&mask == mask&uint64(wordBytes-1) {
			in |= 1 << k
		}
	}
	return func(yield func(addr.Phys) bool) {
		for _, w := range p.words {
			if uint64(w.base)&high != high {
				continue
			}
			for owned := w.owned & in; owned != 0; owned &= owned - 1 {
				if !yield(w.base + addr.Phys(uint64(bits.TrailingZeros64(owned))*PageSize)) {
					return
				}
			}
		}
	}
}

// NumPages returns the page count.
func (p *Pool) NumPages() int { return p.n }

// Bytes returns the total allocated bytes.
func (p *Pool) Bytes() uint64 { return uint64(p.n) * PageSize }

// Config returns the allocation configuration.
func (p *Pool) Config() Config { return p.cfg }

// find returns the index of the word covering a, and false when the
// pool has no such word.
func (p *Pool) find(a addr.Phys) (int, bool) {
	b := uint64(a) >> p.dirShift
	if b+1 >= uint64(len(p.dir)) {
		return 0, false
	}
	lo, hi := int(p.dir[b]), int(p.dir[b+1])
	if lo == hi {
		return 0, false
	}
	// A block's words mostly lie back to back from its first, so try
	// that slot before searching; gaps only move a word closer.
	base := a &^ (wordBytes - 1)
	if first := p.words[lo].base; base >= first {
		if i := lo + int((base-first)/wordBytes); i < hi && p.words[i].base == base {
			return i, true
		}
	}
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if p.words[m].base < base {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(p.words) && p.words[lo].base == base
}

// ContainsPage reports whether the page containing the address is
// allocated.
func (p *Pool) ContainsPage(a addr.Phys) bool {
	i, ok := p.find(a)
	return ok && p.words[i].owned>>(uint64(a-p.words[i].base)/PageSize)&1 != 0
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
	i, ok := p.find(start)
	if !ok {
		return true
	}
	// Walk the words from start's: each must own every page of the
	// range it covers, and the next must follow it on the grid.
	for pg := start; ; i++ {
		w := p.words[i]
		next := w.base + wordBytes
		need := ^uint64(0) << (uint64(pg-w.base) / PageSize)
		if last < next {
			need &= ^uint64(0) >> (wordPages - 1 - uint64(last-w.base)/PageSize)
		}
		if w.owned&need != need {
			return true
		}
		if last < next {
			return false
		}
		if i+1 == len(p.words) || p.words[i+1].base != next {
			return true
		}
		pg = next
	}
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
	pg := p.page(rng.Intn(p.n))
	off := uint64(rng.Int63n(int64(PageSize/align))) * align
	return pg + addr.Phys(off)
}

// page returns the i-th owned page in address order.
func (p *Pool) page(i int) addr.Phys {
	w := int(p.jump[i/wordPages])
	// Page i is in word w or the next about equally often, so the first
	// step is arithmetic, not a branch to mispredict: i − ranks[w+1]
	// shifted by 63 is −1 below the next word and 0 from it on.
	w += 1 + (i-p.ranks[w+1])>>63
	for p.ranks[w+1] <= i {
		w++
	}
	return p.words[w].base + addr.Phys(selectBit(p.words[w].owned, i-p.ranks[w])*PageSize)
}

// selectBit returns the position of the k-th (from 0) set bit of x,
// which has more than k set bits. It is Vigna's branch-free broadword
// select ("Broadword Implementation of Rank/Select Queries", WEA 2008):
// the bytes' running popcounts locate the byte, and a table the bit.
func selectBit(x uint64, k int) uint64 {
	const ones8, highs8 = 0x0101010101010101, 0x8080808080808080
	s := x - (x>>1)&0x5555555555555555
	s = s&0x3333333333333333 + (s>>2)&0x3333333333333333
	s = (s + s>>4) & 0x0f0f0f0f0f0f0f0f
	sums := s * ones8 // byte j: the set bits of bytes 0 … j
	// Byte j's high bit survives exactly when k ≥ sums_j, so the
	// survivors count the bytes wholly below the k-th set bit.
	place := uint64(bits.OnesCount64(((uint64(k)*ones8|highs8)-sums)&highs8)) * 8
	rank := uint64(k) - (sums<<8>>place)&0xff
	return place + uint64(selectInByte[rank<<8|(x>>place)&0xff])
}

// selectInByte[k<<8 | b] is the position of the k-th (from 0) set bit of
// the byte b.
var selectInByte = func() (t [8 << 8]uint8) {
	for b := 0; b < 256; b++ {
		k := 0
		for i := 0; i < 8; i++ {
			if b>>i&1 != 0 {
				t[k<<8|b] = uint8(i)
				k++
			}
		}
	}
	return t
}()
