package alloc

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dramdig/internal/addr"
)

func newTestPool(t testing.TB, cfg Config, seed int64) *Pool {
	t.Helper()
	p, err := NewPool(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(8 << 30).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig(8 << 30)
	bad.MemBytes = 3 << 30
	if err := bad.Validate(); err == nil {
		t.Error("non-power-of-two memory accepted")
	}
	bad = DefaultConfig(8 << 30)
	bad.PrimaryBytes = 5 << 30
	if err := bad.Validate(); err == nil {
		t.Error("oversized primary accepted")
	}
	bad = DefaultConfig(8 << 30)
	bad.PrimaryBytes = 4097
	if err := bad.Validate(); err == nil {
		t.Error("unaligned primary accepted")
	}
	bad = DefaultConfig(8 << 30)
	bad.HoleProb = 1
	if err := bad.Validate(); err == nil {
		t.Error("HoleProb = 1 accepted")
	}
	// A scatter chunk larger than memory has no slot to land in.
	bad = Config{MemBytes: 256 << 20, PrimaryBytes: 64 << 20, ScatterChunks: 1, ScatterChunkBytes: 512 << 20}
	if err := bad.Validate(); err == nil {
		t.Error("scatter chunk larger than memory accepted")
	}
	if _, err := NewPool(bad, 1); err == nil {
		t.Error("NewPool accepted a scatter chunk larger than memory")
	}
}

func TestPoolInvariants(t *testing.T) {
	p := newTestPool(t, DefaultConfig(8<<30), 42)
	pages := slices.Collect(p.All())
	if len(pages) == 0 {
		t.Fatal("empty pool")
	}
	for i, pg := range pages {
		if uint64(pg)%PageSize != 0 {
			t.Fatalf("page %v not aligned", pg)
		}
		if uint64(pg) >= 8<<30 {
			t.Fatalf("page %v outside memory", pg)
		}
		if i > 0 && pages[i-1] >= pg {
			t.Fatalf("pages not strictly sorted at %d", i)
		}
	}
	if p.NumPages() != len(pages) {
		t.Error("NumPages mismatch")
	}
	if p.Bytes() != uint64(len(pages))*PageSize {
		t.Error("Bytes mismatch")
	}
}

func TestPrimaryRangeContiguous(t *testing.T) {
	p := newTestPool(t, DefaultConfig(8<<30), 7)
	start, end := p.PrimaryRange()
	if end-start != addr.Phys(DefaultConfig(8<<30).PrimaryBytes) {
		t.Fatalf("primary range size %d", end-start)
	}
	if uint64(start)%DefaultConfig(8<<30).PrimaryBytes != 0 {
		t.Errorf("primary range not self-aligned: %v", start)
	}
	if p.PageMiss(start, end) {
		t.Error("primary range has holes")
	}
	for pg := start; pg < end; pg += addr.Phys(PageSize) {
		if !p.ContainsPage(pg) {
			t.Fatalf("primary page %v missing", pg)
		}
	}
}

func TestFragmentedPrimary(t *testing.T) {
	cfg := DefaultConfig(8 << 30)
	cfg.FragmentPrimary = true
	cfg.HoleProb = 0.05
	p := newTestPool(t, cfg, 3)
	start, end := p.PrimaryRange()
	if !p.PageMiss(start, end) {
		t.Error("fragmented primary has no holes (possible but wildly unlikely)")
	}
}

func TestContains(t *testing.T) {
	p := newTestPool(t, DefaultConfig(8<<30), 11)
	pg := slices.Collect(p.All())[0]
	if !p.Contains(pg) || !p.Contains(pg+63) || !p.Contains(pg+addr.Phys(PageSize-1)) {
		t.Error("bytes of an owned page reported absent")
	}
}

func TestPageMissDetectsHoles(t *testing.T) {
	p := newTestPool(t, DefaultConfig(8<<30), 13)
	start, end := p.PrimaryRange()
	if p.PageMiss(start, end) {
		t.Error("unexpected hole in primary")
	}
	// A range reaching past the end of memory must miss.
	if !p.PageMiss(addr.Phys(8<<30)-addr.Phys(PageSize), addr.Phys(8<<30)+addr.Phys(4*PageSize)) {
		t.Error("range past memory end reported complete")
	}
}

func TestRandomAddrAlignmentAndMembership(t *testing.T) {
	p := newTestPool(t, DefaultConfig(8<<30), 17)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		a := p.RandomAddr(rng, 64)
		if uint64(a)%64 != 0 {
			t.Fatalf("unaligned address %v", a)
		}
		if !p.Contains(a) {
			t.Fatalf("address %v outside pool", a)
		}
	}
}

func TestRandomAddrBadAlignment(t *testing.T) {
	p := newTestPool(t, DefaultConfig(8<<30), 19)
	defer func() {
		if recover() == nil {
			t.Error("no panic on bad alignment")
		}
	}()
	p.RandomAddr(rand.New(rand.NewSource(1)), 48)
}

func TestHolesReduceScatterPages(t *testing.T) {
	cfg := DefaultConfig(8 << 30)
	cfg.HoleProb = 0.3
	holey := newTestPool(t, cfg, 23)
	cfg2 := DefaultConfig(8 << 30)
	cfg2.HoleProb = 0
	full := newTestPool(t, cfg2, 23)
	if holey.NumPages() >= full.NumPages() {
		t.Errorf("holes did not reduce page count: %d vs %d", holey.NumPages(), full.NumPages())
	}
}

func TestDeterministicLayout(t *testing.T) {
	a := newTestPool(t, DefaultConfig(8<<30), 31)
	b := newTestPool(t, DefaultConfig(8<<30), 31)
	if a.NumPages() != b.NumPages() {
		t.Fatal("same seed produced different pools")
	}
	pa, pb := slices.Collect(a.All()), slices.Collect(b.All())
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("page %d differs", i)
		}
	}
}

func TestSmallMemoryRejected(t *testing.T) {
	cfg := DefaultConfig(8 << 30)
	cfg.MemBytes = 64 << 20 // primary (64 MiB) cannot fit in half of it
	if _, err := NewPool(cfg, 1); err == nil {
		t.Error("primary larger than half of memory accepted")
	}
}

// BenchmarkNewPool builds the default layout at each memory size the
// paper's nine settings use.
func BenchmarkNewPool(b *testing.B) {
	for _, gib := range []uint64{4, 8, 16} {
		b.Run(fmt.Sprintf("%dGiB", gib), func(b *testing.B) {
			cfg := DefaultConfig(gib << 30)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewPool(cfg, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRandomAddr draws cache-line addresses from the default
// layout, as calibration and Step 1's pair search do.
func BenchmarkRandomAddr(b *testing.B) {
	p := newTestPool(b, DefaultConfig(8<<30), 1)
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.RandomAddr(rng, 64)
	}
}

// BenchmarkContainsPage looks up the addresses Step 1's pair search
// tests: a drawn address with one bit from 6 to 32 flipped, which lands
// outside the pool about as often as not.
func BenchmarkContainsPage(b *testing.B) {
	p := newTestPool(b, DefaultConfig(8<<30), 1)
	rng := rand.New(rand.NewSource(2))
	probes := make([]addr.Phys, 4096)
	for i := range probes {
		probes[i] = p.RandomAddr(rng, 64) ^ addr.Phys(1)<<(6+rng.Intn(27))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.ContainsPage(probes[i%len(probes)])
	}
}
