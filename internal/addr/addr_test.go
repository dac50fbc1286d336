package addr

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitSetGet(t *testing.T) {
	var p Phys
	for i := uint(0); i < 64; i += 7 {
		p = p.SetBit(i, 1)
		if p.Bit(i) != 1 {
			t.Errorf("bit %d not set", i)
		}
	}
	for i := uint(0); i < 64; i += 7 {
		p = p.SetBit(i, 0)
		if p.Bit(i) != 0 {
			t.Errorf("bit %d not cleared", i)
		}
	}
	if p != 0 {
		t.Errorf("leftover bits: %v", p)
	}
}

func TestFlipBit(t *testing.T) {
	p := Phys(0b1010)
	if got := p.FlipBit(1); got != 0b1000 {
		t.Errorf("FlipBit(1) = %#b", got)
	}
	if got := p.FlipBit(0); got != 0b1011 {
		t.Errorf("FlipBit(0) = %#b", got)
	}
	if got := p.FlipBit(2).FlipBit(2); got != p {
		t.Errorf("double flip not identity: %v", got)
	}
}

// TestXorFoldMatchesNaive cross-checks the XOR fold against a bit-by-bit
// parity computation on random inputs.
func TestXorFoldMatchesNaive(t *testing.T) {
	f := func(p, mask uint64) bool {
		naive := uint64(0)
		for i := uint(0); i < 64; i++ {
			if mask&(1<<i) != 0 {
				naive ^= (p >> i) & 1
			}
		}
		return Phys(p).XorFold(mask) == naive
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestXorFoldLinear checks the defining linearity property:
// fold(a^b) = fold(a) ^ fold(b).
func TestXorFoldLinear(t *testing.T) {
	f := func(a, b, mask uint64) bool {
		return Phys(a^b).XorFold(mask) == Phys(a).XorFold(mask)^Phys(b).XorFold(mask)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestExtractDepositRoundTrip checks Deposit(Extract(p)) restores p on
// the touched positions and never touches others.
func TestExtractDepositRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var positions []uint
		for b := uint(0); b < 40; b++ {
			if rng.Intn(3) == 0 {
				positions = append(positions, b)
			}
		}
		p := Phys(rng.Uint64())
		v := p.Extract(positions)
		if p.Deposit(positions, v) != p {
			t.Fatalf("deposit(extract) not identity for %v at %v", p, positions)
		}
		// Depositing a fresh value only changes the given positions.
		nv := rng.Uint64() & ((1 << uint(len(positions))) - 1)
		q := p.Deposit(positions, nv)
		if q.Extract(positions) != nv {
			t.Fatalf("extract after deposit: got %#x want %#x", q.Extract(positions), nv)
		}
		outside := ^MaskFromBits(positions)
		if uint64(p)&outside != uint64(q)&outside {
			t.Fatalf("deposit touched bits outside positions")
		}
	}
}

func TestMaskFromBitsRoundTrip(t *testing.T) {
	f := func(mask uint64) bool {
		return MaskFromBits(BitsFromMask(mask)) == mask
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRangeMask(t *testing.T) {
	cases := []struct {
		lo, hi uint
		want   uint64
	}{
		{0, 0, 1},
		{0, 3, 0b1111},
		{4, 7, 0b11110000},
		{63, 63, 1 << 63},
		{0, 63, ^uint64(0)},
	}
	for _, c := range cases {
		if got := RangeMask(c.lo, c.hi); got != c.want {
			t.Errorf("RangeMask(%d, %d) = %#x, want %#x", c.lo, c.hi, got, c.want)
		}
	}
}

func TestRangeMaskPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on inverted range")
		}
	}()
	RangeMask(5, 4)
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]uint{14, 6, 19, 17})
	if lo != 6 || hi != 19 {
		t.Errorf("MinMax = (%d, %d), want (6, 19)", lo, hi)
	}
}

func TestFormatBits(t *testing.T) {
	if got := FormatBits([]uint{18, 14}); got != "(14, 18)" {
		t.Errorf("FormatBits = %q", got)
	}
	if got := FormatBits([]uint{6}); got != "(6)" {
		t.Errorf("FormatBits = %q", got)
	}
}

func TestFormatBitRanges(t *testing.T) {
	cases := []struct {
		in   []uint
		want string
	}{
		{nil, "-"},
		{[]uint{5}, "5"},
		{[]uint{0, 1, 2, 3}, "0~3"},
		{[]uint{0, 1, 2, 3, 5, 6, 9}, "0~3, 5~6, 9"},
		{[]uint{13, 7, 8, 9, 10, 11, 12, 0, 1, 2, 3, 4, 5}, "0~5, 7~13"},
	}
	for _, c := range cases {
		if got := FormatBitRanges(c.in); got != c.want {
			t.Errorf("FormatBitRanges(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestCombinationsCount(t *testing.T) {
	positions := []uint{3, 5, 8, 13, 21}
	want := map[int]int{0: 0, 1: 5, 2: 10, 3: 10, 4: 5, 5: 1}
	for k, n := range want {
		got := 0
		Combinations(positions, k, func(uint64) bool { got++; return true })
		if k == 0 {
			// k=0 yields the empty mask once; the function contract
			// says nothing useful for k=0, skip.
			continue
		}
		if got != n {
			t.Errorf("C(5, %d): got %d combinations, want %d", k, got, n)
		}
	}
}

func TestCombinationsMasksValid(t *testing.T) {
	positions := []uint{2, 4, 7, 9}
	all := MaskFromBits(positions)
	Combinations(positions, 2, func(mask uint64) bool {
		if bits.OnesCount64(mask) != 2 {
			t.Errorf("mask %#x has wrong popcount", mask)
		}
		if mask&^all != 0 {
			t.Errorf("mask %#x outside position set", mask)
		}
		return true
	})
}

func TestCombinationsEarlyStop(t *testing.T) {
	calls := 0
	Combinations([]uint{1, 2, 3, 4, 5}, 2, func(uint64) bool {
		calls++
		return calls < 3
	})
	if calls != 3 {
		t.Errorf("early stop after %d calls, want 3", calls)
	}
}

func TestSubMasksEnumeratesAll(t *testing.T) {
	mask := MaskFromBits([]uint{1, 4, 6})
	seen := map[uint64]bool{}
	SubMasks(mask, func(sub uint64) bool {
		if sub == 0 || sub&^mask != 0 {
			t.Errorf("invalid submask %#x", sub)
		}
		if seen[sub] {
			t.Errorf("duplicate submask %#x", sub)
		}
		seen[sub] = true
		return true
	})
	if len(seen) != 7 { // 2^3 - 1
		t.Errorf("got %d submasks, want 7", len(seen))
	}
}

func TestSubMasksOrderedByPopcount(t *testing.T) {
	mask := MaskFromBits([]uint{0, 1, 2, 3})
	last := 0
	SubMasks(mask, func(sub uint64) bool {
		pc := bits.OnesCount64(sub)
		if pc < last {
			t.Errorf("popcount order violated: %d after %d", pc, last)
		}
		last = pc
		return true
	})
}

func TestEqualBitSets(t *testing.T) {
	if !EqualBitSets([]uint{1, 2, 3}, []uint{3, 2, 1, 1}) {
		t.Error("EqualBitSets should ignore order and duplicates")
	}
	if EqualBitSets([]uint{1, 2}, []uint{1, 2, 3}) {
		t.Error("EqualBitSets false negative expected")
	}
}

func TestSortedCopyDoesNotMutate(t *testing.T) {
	in := []uint{9, 1, 5}
	out := SortedCopy(in)
	if in[0] != 9 {
		t.Error("input mutated")
	}
	if out[0] != 1 || out[1] != 5 || out[2] != 9 {
		t.Errorf("not sorted: %v", out)
	}
}

func BenchmarkXorFold(b *testing.B) {
	p := Phys(0xdeadbeefcafe)
	mask := uint64(0x3c3c00)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += p.XorFold(mask)
	}
	_ = sink
}

func BenchmarkExtract(b *testing.B) {
	p := Phys(0xdeadbeefcafe)
	positions := []uint{17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32}
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += p.Extract(positions)
	}
	_ = sink
}
