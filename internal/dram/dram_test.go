package dram

import (
	"testing"
	"testing/quick"
)

func testGeom() Geometry {
	return Geometry{Banks: 16, RowsPerBank: 1 << 16, RowBytes: 1 << 13}
}

func testVuln() VulnProfile {
	return VulnProfile{
		WeakRowFrac:   0.2,
		MaxWeakPerRow: 4,
		ThresholdMin:  200_000,
		ThresholdMax:  2_000_000,
	}
}

func TestGeometryValidate(t *testing.T) {
	good := testGeom()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Geometry{
		{Banks: 0, RowsPerBank: 4, RowBytes: 4},
		{Banks: 3, RowsPerBank: 4, RowBytes: 4},
		{Banks: 4, RowsPerBank: 0, RowBytes: 4},
		{Banks: 4, RowsPerBank: 5, RowBytes: 4},
		{Banks: 4, RowsPerBank: 4, RowBytes: 0},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("geometry %+v accepted", bad)
		}
	}
}

func TestVulnValidate(t *testing.T) {
	if err := testVuln().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Invulnerable.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testVuln()
	bad.WeakRowFrac = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("WeakRowFrac > 1 accepted")
	}
	bad = testVuln()
	bad.ThresholdMax = bad.ThresholdMin - 1
	if err := bad.Validate(); err == nil {
		t.Error("inverted threshold range accepted")
	}
	bad = testVuln()
	bad.UltraWeakFrac = 0.1 // without ultra thresholds
	if err := bad.Validate(); err == nil {
		t.Error("ultra fraction without thresholds accepted")
	}
}

func TestWeakCellsDeterministic(t *testing.T) {
	d, err := NewDevice(testGeom(), testVuln(), 77)
	if err != nil {
		t.Fatal(err)
	}
	for row := uint64(0); row < 500; row++ {
		a := d.WeakCells(3, row)
		b := d.WeakCells(3, row)
		if len(a) != len(b) {
			t.Fatalf("row %d nondeterministic", row)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("row %d cell %d differs", row, i)
			}
		}
	}
}

func TestWeakCellsFractionRoughlyCalibrated(t *testing.T) {
	d, _ := NewDevice(testGeom(), testVuln(), 99)
	weak := 0
	const n = 20000
	for row := uint64(0); row < n; row++ {
		if len(d.WeakCells(0, row)) > 0 {
			weak++
		}
	}
	frac := float64(weak) / n
	if frac < 0.17 || frac > 0.23 {
		t.Errorf("weak row fraction %.3f, want ≈0.2", frac)
	}
}

func TestWeakCellsOutOfRange(t *testing.T) {
	d, _ := NewDevice(testGeom(), testVuln(), 1)
	if d.WeakCells(99, 0) != nil {
		t.Error("out-of-range bank returned cells")
	}
	if d.WeakCells(0, 1<<40) != nil {
		t.Error("out-of-range row returned cells")
	}
}

func TestInvulnerableNeverFlips(t *testing.T) {
	d, _ := NewDevice(testGeom(), Invulnerable, 5)
	for r := uint64(10); r < 200; r += 2 {
		if flips := d.HammerBurst(0, r, r+2, 1<<20, 10); len(flips) != 0 {
			t.Fatalf("invulnerable device flipped at row %d", r)
		}
	}
}

// TestDoubleSidedBeatsSingleSided: with thresholds above the single-sided
// dose, only sandwiched victims flip.
func TestDoubleSidedBeatsSingleSided(t *testing.T) {
	d, _ := NewDevice(testGeom(), testVuln(), 123)
	const acts = 90_000
	dsFlips, ssFlips := 0, 0
	for r := uint64(100); r < 8000; r += 7 {
		// Double-sided: aggressors r, r+2 sandwich victim r+1.
		for _, f := range d.HammerBurst(1, r, r+2, acts, 1) {
			if f.Row == r+1 {
				dsFlips++
			}
		}
		// Single-sided: aggressors far apart.
		ssFlips += len(d.HammerBurst(1, r, r+1000, acts, 1))
	}
	if dsFlips == 0 {
		t.Fatal("double-sided induced no flips; vulnerability miscalibrated")
	}
	if ssFlips != 0 {
		t.Fatalf("single-sided induced %d flips with thresholds above the dose", ssFlips)
	}
}

// TestUltraWeakEnablesSingleSided: with an ultra-weak population,
// single-sided hammering flips a small number of cells.
func TestUltraWeakEnablesSingleSided(t *testing.T) {
	v := testVuln()
	v.UltraWeakFrac = 0.05
	v.UltraMin = 30_000
	v.UltraMax = 85_000
	d, _ := NewDevice(testGeom(), v, 123)
	const acts = 90_000
	ss := 0
	for r := uint64(100); r < 30000; r += 3 {
		ss += len(d.HammerBurst(2, r, r+1000, acts, 1))
	}
	if ss == 0 {
		t.Fatal("ultra-weak cells never flipped single-sided")
	}
}

// TestAggressorNeverFlipsItself: aggressor rows are rewritten by the
// access stream and must not appear as victims.
func TestAggressorNeverFlipsItself(t *testing.T) {
	d, _ := NewDevice(testGeom(), testVuln(), 9)
	for r := uint64(50); r < 5000; r += 11 {
		for _, f := range d.HammerBurst(0, r, r+2, 1<<22, 1) {
			if f.Row == r || f.Row == r+2 {
				t.Fatalf("aggressor row %d flipped itself", f.Row)
			}
		}
	}
}

// TestFlipsOnlyAdjacent: every flip is within one row of an aggressor.
func TestFlipsOnlyAdjacent(t *testing.T) {
	d, _ := NewDevice(testGeom(), testVuln(), 10)
	for r := uint64(50); r < 5000; r += 13 {
		for _, f := range d.HammerBurst(0, r, r+2, 1<<22, 1) {
			near := f.Row+1 == r || f.Row == r+1 || f.Row == r+3 || f.Row+1 == r+2
			if !near {
				t.Fatalf("flip at row %d not adjacent to aggressors %d/%d", f.Row, r, r+2)
			}
		}
	}
}

func TestHammerBurstBoundaryRows(t *testing.T) {
	d, _ := NewDevice(testGeom(), testVuln(), 11)
	// Must not panic or report negative rows at the array edges.
	_ = d.HammerBurst(0, 0, 2, 1<<22, 1)
	top := testGeom().RowsPerBank - 1
	_ = d.HammerBurst(0, top-2, top, 1<<22, 1)
	if flips := d.HammerBurst(0, 0, 0, 1<<22, 1); flips != nil {
		// Same-row "pair": neighbours are disturbed single-sided only;
		// flips possible but rows must be 1 away.
		for _, f := range flips {
			if f.Row > 1 {
				t.Fatalf("same-row burst flipped distant row %d", f.Row)
			}
		}
	}
}

func TestHammerBurstInvalidInput(t *testing.T) {
	d, _ := NewDevice(testGeom(), testVuln(), 12)
	if d.HammerBurst(99, 0, 2, 1000, 1) != nil {
		t.Error("invalid bank accepted")
	}
	if d.HammerBurst(0, 1<<40, 2, 1000, 1) != nil {
		t.Error("invalid row accepted")
	}
	if d.HammerBurst(0, 0, 2, 0, 1) != nil {
		t.Error("zero activations produced flips")
	}
	if d.HammerBurst(0, 0, 2, 1000, 0) != nil {
		t.Error("zero windows produced flips")
	}
}

// TestFlipsSortedAndDeduped: the flip list is sorted by (row, bit) with
// no duplicates.
func TestFlipsSorted(t *testing.T) {
	d, _ := NewDevice(testGeom(), testVuln(), 13)
	for r := uint64(100); r < 3000; r += 17 {
		flips := d.HammerBurst(0, r, r+2, 1<<22, 1)
		for i := 1; i < len(flips); i++ {
			a, b := flips[i-1], flips[i]
			if a.Row > b.Row || (a.Row == b.Row && a.Bit >= b.Bit) {
				t.Fatalf("flips not strictly sorted: %v then %v", a, b)
			}
		}
	}
}

// TestQuickWeakCellBitsInRange: weak cell bit indices stay within the
// row.
func TestQuickWeakCellBitsInRange(t *testing.T) {
	d, _ := NewDevice(testGeom(), testVuln(), 14)
	rowBits := testGeom().RowBytes * 8
	f := func(bank, row uint64) bool {
		for _, c := range d.WeakCells(bank%16, row%(1<<16)) {
			if c.Bit >= rowBits {
				return false
			}
			if c.Threshold == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFlipString(t *testing.T) {
	f := Flip{Bank: 2, Row: 100, Bit: 9}
	if f.String() != "flip(bank 2, row 100, bit 9)" {
		t.Errorf("String = %q", f.String())
	}
}

func BenchmarkHammerBurst(b *testing.B) {
	d, _ := NewDevice(testGeom(), testVuln(), 15)
	for i := 0; i < b.N; i++ {
		_ = d.HammerBurst(0, uint64(100+i%1000), uint64(102+i%1000), 90_000, 1)
	}
}

// TestTRRSuppressesFlips: with the sampler always firing no flips get
// through; with it off the same bursts flip; at 0.5 a single-window burst
// flips roughly half as often as without TRR.
func TestTRRSuppressesFlips(t *testing.T) {
	count := func(trr float64) int {
		v := testVuln()
		v.TRRProb = trr
		d, _ := NewDevice(testGeom(), v, 321)
		n := 0
		for r := uint64(100); r < 20000; r += 7 {
			n += len(d.HammerBurst(1, r, r+2, 90_000, 1))
		}
		return n
	}
	off, half, full := count(0), count(0.5), count(1)
	if full != 0 {
		t.Errorf("TRR=1 let %d flips through", full)
	}
	if off == 0 {
		t.Fatal("no flips without TRR; vulnerability miscalibrated")
	}
	if half == 0 || half >= off {
		t.Errorf("TRR=0.5 yields %d flips vs %d without; want a strict reduction", half, off)
	}
	ratio := float64(half) / float64(off)
	if ratio < 0.3 || ratio > 0.7 {
		t.Errorf("TRR=0.5 suppression ratio %.2f, want ≈0.5", ratio)
	}
}

// TestTRRDeterministic: the sampler decision is reproducible.
func TestTRRDeterministic(t *testing.T) {
	v := testVuln()
	v.TRRProb = 0.5
	a, _ := NewDevice(testGeom(), v, 55)
	b, _ := NewDevice(testGeom(), v, 55)
	for r := uint64(100); r < 3000; r += 13 {
		fa := a.HammerBurst(0, r, r+2, 90_000, 3)
		fb := b.HammerBurst(0, r, r+2, 90_000, 3)
		if len(fa) != len(fb) {
			t.Fatalf("row %d: %d vs %d flips", r, len(fa), len(fb))
		}
	}
}

// TestTRRMultiWindowEscape: hammering across many windows raises the
// escape probability — the TRRespass-style many-sided observation that
// persistence defeats samplers.
func TestTRRMultiWindowEscape(t *testing.T) {
	v := testVuln()
	v.TRRProb = 0.9
	d, _ := NewDevice(testGeom(), v, 77)
	single, multi := 0, 0
	for r := uint64(100); r < 30000; r += 7 {
		single += len(d.HammerBurst(1, r, r+2, 90_000, 1))
		multi += len(d.HammerBurst(1, r, r+2, 90_000, 20))
	}
	if multi <= single {
		t.Errorf("20-window bursts (%d flips) should escape TRR more than single (%d)", multi, single)
	}
}
