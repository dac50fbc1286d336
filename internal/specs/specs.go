// Package specs encodes the "Specifications" category of DRAMDig's domain
// knowledge: JEDEC-style DDR3/DDR4 chip geometries. From a DRAM part's
// density and data width the tool learns the exact number of physical
// address bits that index rows and columns on that chip, which Step 3 of
// DRAMDig (fine-grained detection) requires.
//
// The tables below follow the Micron DDR3 (MT41K...) and DDR4 (MT40A...)
// data sheets the paper cites. Column addressing on both standards is 10
// bits per chip; with a 64-bit (8-byte) data bus and burst-oriented access,
// the physical-address column range observed by the memory controller spans
// 13 bits (3 bits of byte-in-burst/bus offset + 10 column address bits),
// which matches all nine settings in the paper's Table II (13 column bits
// each).
package specs

import "fmt"

// Standard is a DRAM interface standard.
type Standard int

const (
	// DDR3 SDRAM (JESD79-3).
	DDR3 Standard = iota
	// DDR4 SDRAM (JESD79-4).
	DDR4
)

// String returns "DDR3" or "DDR4".
func (s Standard) String() string {
	switch s {
	case DDR3:
		return "DDR3"
	case DDR4:
		return "DDR4"
	default:
		return fmt.Sprintf("Standard(%d)", int(s))
	}
}

// ChipSpec describes the addressing geometry of a DRAM chip as published in
// its data sheet.
type ChipSpec struct {
	// Part is the data-sheet part number family, e.g. "MT41K512M8".
	Part string
	// Standard is DDR3 or DDR4.
	Standard Standard
	// DensityMbit is the per-chip density in megabits.
	DensityMbit int
	// Width is the chip data width (x4, x8, x16).
	Width int
	// RowAddrBits is the number of row address bits per bank.
	RowAddrBits int
	// ColAddrBits is the number of column address bits (per-chip).
	ColAddrBits int
	// BanksPerRank is the number of banks a rank built from this chip
	// exposes (DDR3: 8; DDR4: 16 for x4/x8, 8 for x16).
	BanksPerRank int
}

// String renders the part and geometry.
func (c ChipSpec) String() string {
	return fmt.Sprintf("%s %s %dMb x%d (%d row bits, %d col bits, %d banks/rank)",
		c.Part, c.Standard, c.DensityMbit, c.Width, c.RowAddrBits, c.ColAddrBits, c.BanksPerRank)
}

// BusColBits is the number of physical-address bits that select a column
// position on a standard 64-bit DIMM bus: 3 bits of offset within the
// 8-byte bus word plus the chip's 10-bit column address.
const BusColBits = 3

// PhysColBits returns the number of physical address bits that index
// columns from the memory controller's point of view.
func (c ChipSpec) PhysColBits() int { return c.ColAddrBits + BusColBits }

// PhysRowBits returns the number of physical address bits that index rows.
// It equals the chip's row address width.
func (c ChipSpec) PhysRowBits() int { return c.RowAddrBits }

// Catalog lists the chip geometries used across the paper's nine machine
// settings plus other common parts, indexed by part family.
var Catalog = map[string]ChipSpec{
	// DDR3 (Micron MT41K family, data sheet rev. 2015).
	"MT41K256M8":  {Part: "MT41K256M8", Standard: DDR3, DensityMbit: 2048, Width: 8, RowAddrBits: 15, ColAddrBits: 10, BanksPerRank: 8},
	"MT41K512M8":  {Part: "MT41K512M8", Standard: DDR3, DensityMbit: 4096, Width: 8, RowAddrBits: 16, ColAddrBits: 10, BanksPerRank: 8},
	"MT41K256M16": {Part: "MT41K256M16", Standard: DDR3, DensityMbit: 4096, Width: 16, RowAddrBits: 15, ColAddrBits: 10, BanksPerRank: 8},
	"MT41K1G8":    {Part: "MT41K1G8", Standard: DDR3, DensityMbit: 8192, Width: 8, RowAddrBits: 16, ColAddrBits: 11, BanksPerRank: 8},
	// DDR4 (Micron MT40A family, data sheet rev. 2015).
	"MT40A512M8":  {Part: "MT40A512M8", Standard: DDR4, DensityMbit: 4096, Width: 8, RowAddrBits: 15, ColAddrBits: 10, BanksPerRank: 16},
	"MT40A1G8":    {Part: "MT40A1G8", Standard: DDR4, DensityMbit: 8192, Width: 8, RowAddrBits: 16, ColAddrBits: 10, BanksPerRank: 16},
	"MT40A512M16": {Part: "MT40A512M16", Standard: DDR4, DensityMbit: 8192, Width: 16, RowAddrBits: 16, ColAddrBits: 10, BanksPerRank: 8},
	"MT40A256M16": {Part: "MT40A256M16", Standard: DDR4, DensityMbit: 4096, Width: 16, RowAddrBits: 15, ColAddrBits: 10, BanksPerRank: 8},
}

// Lookup retrieves a chip spec by part family.
func Lookup(part string) (ChipSpec, error) {
	c, ok := Catalog[part]
	if !ok {
		return ChipSpec{}, fmt.Errorf("specs: unknown part %q", part)
	}
	return c, nil
}
