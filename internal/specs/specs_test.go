package specs

import (
	"strings"
	"testing"
)

func TestStandardString(t *testing.T) {
	if DDR3.String() != "DDR3" || DDR4.String() != "DDR4" {
		t.Error("standard strings wrong")
	}
	if !strings.Contains(Standard(9).String(), "9") {
		t.Error("unknown standard should render its number")
	}
}

// TestCatalogConsistency: every catalog entry's addressing bits must
// account for its density: rows + cols + log2(banks) + log2(width) =
// log2(density).
func TestCatalogConsistency(t *testing.T) {
	log2 := func(n int) int {
		b := 0
		for 1<<(b+1) <= n {
			b++
		}
		if 1<<b != n {
			t.Fatalf("%d not a power of two", n)
		}
		return b
	}
	for part, c := range Catalog {
		if c.Part != part {
			t.Errorf("%s: part field %q mismatched", part, c.Part)
		}
		densityBits := c.RowAddrBits + c.ColAddrBits + log2(c.BanksPerRank) + log2(c.Width)
		if got := 1 << uint(densityBits); got != c.DensityMbit*1<<20 {
			t.Errorf("%s: addressing covers 2^%d bits, want %d Mbit", part, densityBits, c.DensityMbit)
		}
		switch c.Standard {
		case DDR3:
			if c.BanksPerRank != 8 {
				t.Errorf("%s: DDR3 must have 8 banks/rank", part)
			}
		case DDR4:
			if c.Width == 16 && c.BanksPerRank != 8 {
				t.Errorf("%s: DDR4 x16 must have 8 banks/rank", part)
			}
			if c.Width != 16 && c.BanksPerRank != 16 {
				t.Errorf("%s: DDR4 x4/x8 must have 16 banks/rank", part)
			}
		}
	}
}

func TestPhysColBits(t *testing.T) {
	c, err := Lookup("MT41K512M8")
	if err != nil {
		t.Fatal(err)
	}
	if c.PhysColBits() != 13 {
		t.Errorf("PhysColBits = %d, want 13", c.PhysColBits())
	}
	if c.PhysRowBits() != 16 {
		t.Errorf("PhysRowBits = %d, want 16", c.PhysRowBits())
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("MT_NOPE"); err == nil {
		t.Error("unknown part accepted")
	}
}

func TestChipString(t *testing.T) {
	c, _ := Lookup("MT40A512M8")
	s := c.String()
	for _, want := range []string{"MT40A512M8", "DDR4", "x8", "15 row bits"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q: %s", want, s)
		}
	}
}
