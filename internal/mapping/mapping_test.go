package mapping

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"dramdig/internal/addr"
)

// no1 builds the paper's No.1 mapping (Sandy Bridge, DDR3 8 GiB).
func no1(t testing.TB) *Mapping {
	t.Helper()
	funcs, err := ParseFuncs("(6), (14, 17), (15, 18), (16, 19)")
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := ParseBitRanges("17~32")
	cols, _ := ParseBitRanges("0~5, 7~13")
	m, err := New(33, funcs, rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// no2 builds the paper's No.2 mapping (Ivy Bridge dual-rank, wide rank
// function with shared bits).
func no2(t testing.TB) *Mapping {
	t.Helper()
	funcs, err := ParseFuncs("(14, 18), (15, 19), (16, 20), (17, 21), (7, 8, 9, 12, 13, 18, 19)")
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := ParseBitRanges("18~32")
	cols, _ := ParseBitRanges("0~6, 8~13")
	m, err := New(33, funcs, rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestValidateRejectsBadMappings(t *testing.T) {
	rows, _ := ParseBitRanges("17~32")
	cols, _ := ParseBitRanges("0~5, 7~13")
	funcs, _ := ParseFuncs("(6), (14, 17), (15, 18), (16, 19)")

	cases := []struct {
		name string
		mut  func() (*Mapping, error)
	}{
		{"zero phys bits", func() (*Mapping, error) { return New(0, funcs, rows, cols) }},
		{"row col overlap", func() (*Mapping, error) {
			badCols := append([]uint{17}, cols[1:]...)
			return New(33, funcs, rows, badCols)
		}},
		{"bit out of range", func() (*Mapping, error) {
			return New(33, funcs, append([]uint{40}, rows[1:]...), cols)
		}},
		{"empty function", func() (*Mapping, error) {
			return New(33, append([]uint64{0}, funcs...), rows, cols)
		}},
		{"wrong bit count", func() (*Mapping, error) {
			return New(33, funcs[1:], rows, cols)
		}},
		{"singular map", func() (*Mapping, error) {
			// Replace the channel function (6) with (14, 17): now two
			// identical functions, rank deficient, and bit 6 unused.
			bad := append([]uint64(nil), funcs...)
			bad[0] = funcs[1]
			return New(33, bad, rows, cols)
		}},
	}
	for _, c := range cases {
		if _, err := c.mut(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestCountsNo1(t *testing.T) {
	m := no1(t)
	if m.NumBanks() != 16 {
		t.Errorf("banks = %d, want 16", m.NumBanks())
	}
	if m.NumRows() != 1<<16 {
		t.Errorf("rows = %d", m.NumRows())
	}
	if m.NumCols() != 1<<13 {
		t.Errorf("cols = %d", m.NumCols())
	}
	if m.MemBytes() != 8<<30 {
		t.Errorf("mem = %d", m.MemBytes())
	}
}

// TestDecodeEncodeRoundTrip is the core bijection property, on both a
// disjoint-function mapping (No.1) and a shared-bit mapping (No.2).
func TestDecodeEncodeRoundTrip(t *testing.T) {
	for _, m := range []*Mapping{no1(t), no2(t)} {
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 2000; i++ {
			p := addr.Phys(rng.Uint64() & (m.MemBytes() - 1))
			d := m.Decode(p)
			back, err := m.Encode(d)
			if err != nil {
				t.Fatalf("encode(%v): %v", d, err)
			}
			if back != p {
				t.Fatalf("roundtrip %v -> %v -> %v", p, d, back)
			}
		}
	}
}

// TestEncodeDecodeRoundTrip goes the other way: random valid DRAM tuples
// encode to addresses that decode back to the same tuple.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := no2(t)
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 2000; i++ {
		d := DRAMAddr{
			Bank: rng.Uint64() % uint64(m.NumBanks()),
			Row:  rng.Uint64() % m.NumRows(),
			Col:  rng.Uint64() % m.NumCols(),
		}
		p, err := m.Encode(d)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Decode(p); got != d {
			t.Fatalf("decode(encode(%v)) = %v", d, got)
		}
	}
}

func TestEncodeRange(t *testing.T) {
	m := no1(t)
	if _, err := m.Encode(DRAMAddr{Bank: uint64(m.NumBanks())}); err == nil {
		t.Error("bank out of range accepted")
	}
	if _, err := m.Encode(DRAMAddr{Row: m.NumRows()}); err == nil {
		t.Error("row out of range accepted")
	}
	if _, err := m.Encode(DRAMAddr{Col: m.NumCols()}); err == nil {
		t.Error("col out of range accepted")
	}
}

// TestDecodeIsBijective samples many addresses and checks for DRAM-tuple
// collisions (there must be none — full rank guarantees it).
func TestDecodeIsBijective(t *testing.T) {
	m := no2(t)
	rng := rand.New(rand.NewSource(11))
	seen := map[DRAMAddr]addr.Phys{}
	for i := 0; i < 5000; i++ {
		p := addr.Phys(rng.Uint64() & (m.MemBytes() - 1))
		d := m.Decode(p)
		if prev, dup := seen[d]; dup && prev != p {
			t.Fatalf("collision: %v and %v both decode to %v", prev, p, d)
		}
		seen[d] = p
	}
}

func TestSameBankSBDR(t *testing.T) {
	m := no1(t)
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 2000; i++ {
		a := addr.Phys(rng.Uint64() & (m.MemBytes() - 1))
		b := addr.Phys(rng.Uint64() & (m.MemBytes() - 1))
		da, db := m.Decode(a), m.Decode(b)
		if m.SameBank(a, b) != (da.Bank == db.Bank) {
			t.Fatalf("SameBank inconsistent with Decode")
		}
		if m.SBDR(a, b) != (da.Bank == db.Bank && da.Row != db.Row) {
			t.Fatalf("SBDR inconsistent with Decode")
		}
	}
}

func TestRowNeighbor(t *testing.T) {
	m := no2(t)
	p := addr.Phys(0x1234_5678)
	d := m.Decode(p)
	up, err := m.RowNeighbor(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	du := m.Decode(up)
	if du.Bank != d.Bank || du.Col != d.Col || du.Row != d.Row+1 {
		t.Errorf("neighbor wrong: %v from %v", du, d)
	}
	// Out of range.
	top, _ := m.Encode(DRAMAddr{Bank: 0, Row: m.NumRows() - 1, Col: 0})
	if _, err := m.RowNeighbor(top, 1); err == nil {
		t.Error("neighbor above top row accepted")
	}
}

func TestSharedBits(t *testing.T) {
	m2 := no2(t)
	if got := m2.SharedRowBits(); !addr.EqualBitSets(got, []uint{18, 19, 20, 21}) {
		t.Errorf("shared row bits = %v", got)
	}
	if got := m2.SharedColBits(); !addr.EqualBitSets(got, []uint{8, 9, 12, 13}) {
		t.Errorf("shared col bits = %v", got)
	}
	m1 := no1(t)
	if got := m1.SharedRowBits(); !addr.EqualBitSets(got, []uint{17, 18, 19}) {
		t.Errorf("No.1 shared row bits = %v", got)
	}
	if got := m1.SharedColBits(); len(got) != 0 {
		t.Errorf("No.1 shared col bits = %v, want none", got)
	}
}

// TestEquivalenceUnderRecombination: replacing functions by invertible
// linear combinations keeps the mapping equivalent, and both canonicalize
// identically.
func TestEquivalenceUnderRecombination(t *testing.T) {
	m := no2(t)
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		funcs := append([]uint64(nil), m.BankFuncs...)
		for k := 0; k < 6; k++ {
			i, j := rng.Intn(len(funcs)), rng.Intn(len(funcs))
			if i != j {
				funcs[i] ^= funcs[j]
			}
		}
		alt, err := New(m.PhysBits, funcs, m.RowBits, m.ColBits)
		if err != nil {
			t.Fatalf("recombined mapping invalid: %v", err)
		}
		if !m.EquivalentTo(alt) {
			t.Fatal("recombined mapping not equivalent")
		}
		c1, c2 := m.Canonicalize(), alt.Canonicalize()
		if c1.FuncString() != c2.FuncString() {
			t.Fatalf("canonical forms differ: %s vs %s", c1.FuncString(), c2.FuncString())
		}
	}
}

func TestNotEquivalent(t *testing.T) {
	a := no1(t)
	// Same row/col split but a different function span: the channel
	// bit function (6) becomes (6, 13) with 13 a shared column bit.
	funcs := append([]uint64(nil), a.BankFuncs...)
	funcs[0] = 1<<6 | 1<<13
	b, err := New(33, funcs, a.RowBits, a.ColBits)
	if err != nil {
		t.Fatal(err)
	}
	if a.EquivalentTo(b) {
		t.Error("different function spans reported equivalent")
	}
}

func TestFuncStringAndString(t *testing.T) {
	m := no1(t)
	if got := m.FuncString(); got != "(6), (14, 17), (15, 18), (16, 19)" {
		t.Errorf("FuncString = %q", got)
	}
	s := m.String()
	for _, want := range []string{"17~32", "0~5, 7~13", "(14, 17)"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q: %s", want, s)
		}
	}
}

func TestParseFuncs(t *testing.T) {
	funcs, err := ParseFuncs("(6), (14, 17)")
	if err != nil {
		t.Fatal(err)
	}
	if len(funcs) != 2 || funcs[0] != 1<<6 || funcs[1] != (1<<14|1<<17) {
		t.Errorf("parsed %#x", funcs)
	}
	for _, bad := range []string{"", "14, 17", "(", "()", "(a)", "((14))", "(14))"} {
		if _, err := ParseFuncs(bad); err == nil {
			t.Errorf("ParseFuncs(%q) accepted", bad)
		}
	}
}

func TestParseBitRanges(t *testing.T) {
	bits, err := ParseBitRanges("0~2, 5, 9~10")
	if err != nil {
		t.Fatal(err)
	}
	if !addr.EqualBitSets(bits, []uint{0, 1, 2, 5, 9, 10}) {
		t.Errorf("parsed %v", bits)
	}
	for _, bad := range []string{"5~3", "x", "1~y"} {
		if _, err := ParseBitRanges(bad); err == nil {
			t.Errorf("ParseBitRanges(%q) accepted", bad)
		}
	}
}

// TestParseFormatRoundTrip: formatting then parsing bit ranges is the
// identity on random bit sets.
func TestParseFormatRoundTrip(t *testing.T) {
	f := func(mask uint64) bool {
		mask &= 0xffffffffff // keep bits < 40
		bits := addr.BitsFromMask(mask)
		if len(bits) == 0 {
			return true
		}
		parsed, err := ParseBitRanges(addr.FormatBitRanges(bits))
		return err == nil && addr.EqualBitSets(parsed, bits)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBankBits(t *testing.T) {
	m := no2(t)
	want := []uint{7, 8, 9, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21}
	if got := m.BankBits(); !addr.EqualBitSets(got, want) {
		t.Errorf("BankBits = %v", got)
	}
}

func BenchmarkDecode(b *testing.B) {
	dec := no2(b).Compile()
	p := addr.Phys(0x1234_5678)
	for i := 0; i < b.N; i++ {
		_ = dec.Decode(p)
	}
}

func BenchmarkEncode(b *testing.B) {
	m := no2(b)
	d := m.Decode(0x1234_5678)
	for i := 0; i < b.N; i++ {
		if _, err := m.Encode(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCanonicalize canonicalizes the No.1 truth (4 functions, a
// 15-element span) and the No.6 truth (6 functions, 63 elements), as
// every job's and every replay's fingerprint does.
func BenchmarkCanonicalize(b *testing.B) {
	for _, tc := range []struct {
		name, funcs, rows, cols string
		physBits                uint
	}{
		{"No.1", "(6), (14, 17), (15, 18), (16, 19)", "17~32", "0~5, 7~13", 33},
		{"No.6", "(7, 14), (15, 19), (16, 20), (17, 21), (18, 22), (8, 9, 12, 13, 18, 19)", "19~33", "0~7, 9~13", 34},
	} {
		b.Run(tc.name, func(b *testing.B) {
			funcs, err := ParseFuncs(tc.funcs)
			if err != nil {
				b.Fatal(err)
			}
			rows, _ := ParseBitRanges(tc.rows)
			cols, _ := ParseBitRanges(tc.cols)
			m, err := New(tc.physBits, funcs, rows, cols)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				m.Canonicalize()
			}
		})
	}
}
