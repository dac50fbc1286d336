package machine

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dramdig/internal/addr"
)

// TestAllSettingsBuild: every paper setting constructs, its ground truth
// validates, and the function count matches the configured bank count.
func TestAllSettingsBuild(t *testing.T) {
	for _, def := range Settings() {
		def := def
		t.Run(def.Name, func(t *testing.T) {
			m, err := New(def, 5)
			if err != nil {
				t.Fatal(err)
			}
			truth := m.Truth()
			if err := truth.Validate(); err != nil {
				t.Fatalf("ground truth invalid: %v", err)
			}
			if got, want := truth.NumBanks(), def.Config.TotalBanks(); got != want {
				t.Errorf("banks: %d, config says %d", got, want)
			}
			if truth.MemBytes() != def.MemBytes {
				t.Errorf("memory: %d vs %d", truth.MemBytes(), def.MemBytes)
			}
			info := m.SysInfo()
			if err := info.Validate(); err != nil {
				t.Fatal(err)
			}
			// Spec row/col counts must match the ground truth — Step 3
			// depends on it.
			if got, want := len(truth.RowBits), info.Chip.PhysRowBits(); got != want {
				t.Errorf("row bits: truth %d, spec %d", got, want)
			}
			if got, want := len(truth.ColBits), info.Chip.PhysColBits(); got != want {
				t.Errorf("col bits: truth %d, spec %d", got, want)
			}
		})
	}
}

// TestPaperGroundTruths spot-checks the Table II transcription.
func TestPaperGroundTruths(t *testing.T) {
	m1, err := NewByNo(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := m1.Truth().FuncString(); got != "(6), (14, 17), (15, 18), (16, 19)" {
		t.Errorf("No.1 funcs = %s", got)
	}
	if got := addr.FormatBitRanges(m1.Truth().RowBits); got != "17~32" {
		t.Errorf("No.1 rows = %s", got)
	}
	m6, err := NewByNo(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := addr.FormatBitRanges(m6.Truth().ColBits); got != "0~7, 9~13" {
		t.Errorf("No.6 cols = %s", got)
	}
	if m6.Truth().NumBanks() != 64 {
		t.Errorf("No.6 banks = %d", m6.Truth().NumBanks())
	}
	// No.5 carries the documented row-range correction.
	def5, _ := ByNo(5)
	if !strings.Contains(def5.Notes, "18~33") {
		t.Errorf("No.5 should document the row-range correction, got %q", def5.Notes)
	}
}

func TestByNoErrors(t *testing.T) {
	if _, err := ByNo(0); err == nil {
		t.Error("ByNo(0) accepted")
	}
	if _, err := ByNo(10); err == nil {
		t.Error("ByNo(10) accepted")
	}
	if _, err := NewByNo(42, 1); err == nil {
		t.Error("NewByNo(42) accepted")
	}
}

// TestSeedDeterminism: same definition and seed produce identical pools
// and identical measurement streams.
func TestSeedDeterminism(t *testing.T) {
	a, err := NewByNo(2, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewByNo(2, 99)
	if err != nil {
		t.Fatal(err)
	}
	if a.Pool().NumPages() != b.Pool().NumPages() {
		t.Fatal("pools differ")
	}
	pa := slices.Collect(a.Pool().All())[0]
	pb := slices.Collect(b.Pool().All())[0]
	if pa != pb {
		t.Fatal("pool layout differs")
	}
	for i := 0; i < 50; i++ {
		la := a.MeasurePair(pa, pa+addr.Phys(i*64+4096), 600)
		lb := b.MeasurePair(pb, pb+addr.Phys(i*64+4096), 600)
		if la != lb {
			t.Fatalf("measurement %d differs: %v vs %v", i, la, lb)
		}
	}
}

// TestDifferentSeedsDifferentLayout: different seeds shuffle the
// allocation.
func TestDifferentSeedsDifferentLayout(t *testing.T) {
	a, _ := NewByNo(1, 1)
	b, _ := NewByNo(1, 2)
	if slices.Collect(a.Pool().All())[0] == slices.Collect(b.Pool().All())[0] {
		t.Skip("first page happens to coincide; acceptable")
	}
}

// TestTimingChannelPresent: ground-truth SBDR pairs measure measurably
// higher than same-row pairs on every setting.
func TestTimingChannelPresent(t *testing.T) {
	for no := 1; no <= 9; no++ {
		m, err := NewByNo(no, 3)
		if err != nil {
			t.Fatal(err)
		}
		base := slices.Collect(m.Pool().All())[0]
		sbdr, err := m.Truth().RowNeighbor(base, 5)
		if err != nil {
			t.Fatal(err)
		}
		var hi, lo float64
		for i := 0; i < 20; i++ {
			hi += m.MeasurePair(base, sbdr, 1200)
			lo += m.MeasurePair(base, base+128, 1200)
		}
		if hi-lo < 20*20 { // ≥ 20 ns separation on average
			t.Errorf("No.%d: timing channel too weak (Δ=%.1f ns)", no, (hi-lo)/20)
		}
	}
}

// TestHammerThroughMachine: the machine facade delivers flips for true
// sandwich pairs on a vulnerable setting.
func TestHammerThroughMachine(t *testing.T) {
	m, _ := NewByNo(2, 4)
	truth := m.Truth()
	rng := rand.New(rand.NewSource(8))
	flips := 0
	for i := 0; i < 200; i++ {
		v := m.Pool().RandomAddr(rng, 64)
		below, err1 := truth.RowNeighbor(v, -1)
		above, err2 := truth.RowNeighbor(v, 1)
		if err1 != nil || err2 != nil {
			continue
		}
		flips += len(m.HammerPair(below, above, 90_000))
	}
	if flips == 0 {
		t.Error("no flips on the most vulnerable setting")
	}
}

func TestDefAccessors(t *testing.T) {
	m, _ := NewByNo(3, 1)
	if m.Name() != "No.3" {
		t.Errorf("Name = %s", m.Name())
	}
	if m.Def().Microarch != "Ivy Bridge" {
		t.Errorf("Microarch = %s", m.Def().Microarch)
	}
	if m.Controller() == nil {
		t.Error("Controller nil")
	}
	if m.Stats().Accesses != 0 {
		t.Error("fresh machine has access counts")
	}
	m.AdvanceClock(5)
	if m.ClockNs() != 5 {
		t.Error("AdvanceClock not reflected")
	}
}

// TestSettingsCopy: Settings returns a copy, not the registry itself.
func TestSettingsCopy(t *testing.T) {
	s := Settings()
	s[0].Name = "mutated"
	if Settings()[0].Name != "No.1" {
		t.Error("Settings leaked internal storage")
	}
}

// BenchmarkSurface rebuilds each paper setting's tool-visible surface,
// as every live job and trace replay does once.
func BenchmarkSurface(b *testing.B) {
	for _, def := range Settings() {
		b.Run(def.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := Surface(def, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
