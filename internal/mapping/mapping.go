// Package mapping models a DRAM address mapping: the function the memory
// controller applies to a physical address to derive a DRAM 3-tuple of
// (bank, row, column), where — following the paper — channel, DIMM and rank
// select bits are folded into the bank tuple.
//
// On Intel platforms every bank-select bit is an XOR fold of a set of
// physical address bits; row and column indices are plain bit extractions.
// A mapping therefore consists of
//
//   - a list of bank address functions, each a bit mask whose XOR fold
//     yields one bank-index bit,
//   - the list of physical bits forming the row index, and
//   - the list of physical bits forming the column index.
//
// The package supports decoding physical addresses, re-encoding DRAM
// tuples back to physical addresses (solving the GF(2) system), validating
// invertibility, canonicalization and linear-equivalence comparison, and
// the paper's textual notation ("(14, 18)", "0~6, 8~13").
package mapping

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"

	"dramdig/internal/addr"
	"dramdig/internal/linalg"
)

// DRAMAddr is a decoded DRAM location. Bank numbers the full bank tuple
// (channel, DIMM, rank, bank) as produced by concatenating the bank
// function outputs, function 0 providing bit 0.
type DRAMAddr struct {
	Bank uint64
	Row  uint64
	Col  uint64
}

// String renders the tuple.
func (d DRAMAddr) String() string {
	return fmt.Sprintf("(bank %d, row %d, col %d)", d.Bank, d.Row, d.Col)
}

// Mapping is a DRAM address mapping over a physical address space of
// PhysBits bits.
type Mapping struct {
	// BankFuncs holds one XOR mask per bank-index bit, least significant
	// bank bit first.
	BankFuncs []uint64
	// RowBits lists physical bit positions of the row index, ascending;
	// RowBits[0] is row-index bit 0.
	RowBits []uint
	// ColBits lists physical bit positions of the column index, ascending.
	ColBits []uint
	// PhysBits is the width of the physical address space (log2 of the
	// memory size in bytes).
	PhysBits uint
}

// New constructs a mapping, sorting bit slices, and validates it.
func New(physBits uint, bankFuncs []uint64, rowBits, colBits []uint) (*Mapping, error) {
	m := &Mapping{
		BankFuncs: append([]uint64(nil), bankFuncs...),
		RowBits:   addr.SortedCopy(rowBits),
		ColBits:   addr.SortedCopy(colBits),
		PhysBits:  physBits,
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// NumBanks returns the number of distinct bank tuples.
func (m *Mapping) NumBanks() int { return 1 << len(m.BankFuncs) }

// NumRows returns the number of rows per bank.
func (m *Mapping) NumRows() uint64 { return 1 << len(m.RowBits) }

// NumCols returns the number of column positions (bytes per row from the
// controller's view).
func (m *Mapping) NumCols() uint64 { return 1 << len(m.ColBits) }

// MemBytes returns the size of the physical address space.
func (m *Mapping) MemBytes() uint64 { return 1 << m.PhysBits }

// Validate checks structural consistency and invertibility:
//
//   - row and column bit sets are disjoint and within PhysBits,
//   - bank function masks are nonzero and within PhysBits,
//   - #rowBits + #colBits + #bankFuncs == PhysBits, and
//   - the overall GF(2) map phys → (row, col, bank) has full rank,
//     i.e. the mapping is a bijection.
func (m *Mapping) Validate() error {
	if m.PhysBits == 0 || m.PhysBits > 62 {
		return fmt.Errorf("mapping: invalid PhysBits %d", m.PhysBits)
	}
	limit := uint64(1)<<m.PhysBits - 1
	seen := map[uint]string{}
	for _, b := range m.RowBits {
		if b >= m.PhysBits {
			return fmt.Errorf("mapping: row bit %d outside %d-bit space", b, m.PhysBits)
		}
		if prev, dup := seen[b]; dup {
			return fmt.Errorf("mapping: bit %d used as both %s and row", b, prev)
		}
		seen[b] = "row"
	}
	for _, b := range m.ColBits {
		if b >= m.PhysBits {
			return fmt.Errorf("mapping: column bit %d outside %d-bit space", b, m.PhysBits)
		}
		if prev, dup := seen[b]; dup {
			return fmt.Errorf("mapping: bit %d used as both %s and column", b, prev)
		}
		seen[b] = "column"
	}
	for i, f := range m.BankFuncs {
		if f == 0 {
			return fmt.Errorf("mapping: bank function %d is empty", i)
		}
		if f&^limit != 0 {
			return fmt.Errorf("mapping: bank function %d (%s) uses bits outside %d-bit space",
				i, addr.FormatBits(addr.BitsFromMask(f)), m.PhysBits)
		}
	}
	total := len(m.RowBits) + len(m.ColBits) + len(m.BankFuncs)
	if uint(total) != m.PhysBits {
		return fmt.Errorf("mapping: %d row + %d col + %d bank bits = %d, want %d",
			len(m.RowBits), len(m.ColBits), len(m.BankFuncs), total, m.PhysBits)
	}
	if mat := m.matrix(); !mat.Independent() {
		return fmt.Errorf("mapping: phys→DRAM map is singular (not a bijection)")
	}
	return nil
}

// matrix builds the GF(2) matrix of the full phys → (row‖col‖bank) map.
// Row ordering: row-index bits, then column-index bits, then bank bits.
func (m *Mapping) matrix() *linalg.Matrix {
	mat := linalg.NewMatrix()
	for _, b := range m.RowBits {
		mat.AddRow(uint64(1) << b)
	}
	for _, b := range m.ColBits {
		mat.AddRow(uint64(1) << b)
	}
	for _, f := range m.BankFuncs {
		mat.AddRow(f)
	}
	return mat
}

// Decode maps a physical address to its DRAM location. It compiles the
// mapping on every call; callers decoding many addresses compile once
// with Compile.
func (m *Mapping) Decode(p addr.Phys) DRAMAddr {
	dec := m.Compile()
	return dec.Decode(p)
}

// Decoder is a mapping compiled for decoding. Row and column bits are
// mostly contiguous (the paper's settings have one row run and one or two
// column runs), so each index is gathered one run at a time rather than
// one bit at a time.
type Decoder struct {
	row, col []bitRun
	funcs    []uint64
}

// bitRun moves a run of consecutive physical bits to consecutive index
// bits: rotating by rot lines the run up with its index positions, which
// mask selects.
type bitRun struct {
	rot  int
	mask uint64
}

// Compile builds the decoder of the mapping as it is now; later changes
// to the mapping do not reach it.
func (m *Mapping) Compile() Decoder {
	return Decoder{
		row:   compileRuns(m.RowBits),
		col:   compileRuns(m.ColBits),
		funcs: append([]uint64(nil), m.BankFuncs...),
	}
}

// compileRuns splits index bit positions into runs that are consecutive
// both in the index and in the physical address. positions must lie
// below 64, as they do in a valid mapping.
func compileRuns(positions []uint) []bitRun {
	var runs []bitRun
	for i := 0; i < len(positions); {
		j := i + 1
		for j < len(positions) && positions[j] == positions[j-1]+1 {
			j++
		}
		runs = append(runs, bitRun{
			rot:  i - int(positions[i]),
			mask: (uint64(1)<<uint(j-i) - 1) << uint(i),
		})
		i = j
	}
	return runs
}

func gather(p uint64, runs []bitRun) uint64 {
	var v uint64
	for _, r := range runs {
		v |= bits.RotateLeft64(p, r.rot) & r.mask
	}
	return v
}

// Decode maps a physical address to its DRAM location.
func (d *Decoder) Decode(p addr.Phys) DRAMAddr {
	out := DRAMAddr{Row: gather(uint64(p), d.row), Col: gather(uint64(p), d.col)}
	for i, f := range d.funcs {
		out.Bank |= p.XorFold(f) << uint(i)
	}
	return out
}

// Encode maps a DRAM location back to the unique physical address that
// decodes to it. It returns an error when the tuple is out of range.
// Encode solves the GF(2) system defined by the mapping; for a valid
// (full-rank) mapping a solution always exists and is unique.
func (m *Mapping) Encode(d DRAMAddr) (addr.Phys, error) {
	if d.Row >= m.NumRows() {
		return 0, fmt.Errorf("mapping: row %d out of range (max %d)", d.Row, m.NumRows()-1)
	}
	if d.Col >= m.NumCols() {
		return 0, fmt.Errorf("mapping: col %d out of range (max %d)", d.Col, m.NumCols()-1)
	}
	if d.Bank >= uint64(m.NumBanks()) {
		return 0, fmt.Errorf("mapping: bank %d out of range (max %d)", d.Bank, m.NumBanks()-1)
	}
	mat := m.matrix()
	// Assemble the RHS in the same row order as matrix().
	var rhs uint64
	bit := 0
	for i := range m.RowBits {
		rhs |= ((d.Row >> uint(i)) & 1) << uint(bit)
		bit++
	}
	for i := range m.ColBits {
		rhs |= ((d.Col >> uint(i)) & 1) << uint(bit)
		bit++
	}
	for i := range m.BankFuncs {
		rhs |= ((d.Bank >> uint(i)) & 1) << uint(bit)
		bit++
	}
	x, ok := linalg.Solve(mat, rhs)
	if !ok {
		return 0, fmt.Errorf("mapping: unsolvable system (singular mapping)")
	}
	return addr.Phys(x), nil
}

// SameBank reports whether two physical addresses fall into the same bank
// tuple.
func (m *Mapping) SameBank(a, b addr.Phys) bool {
	for _, f := range m.BankFuncs {
		if a.XorFold(f) != b.XorFold(f) {
			return false
		}
	}
	return true
}

// SBDR reports whether the two addresses are Same-Bank-Different-Row — the
// configuration that triggers a row-buffer conflict.
func (m *Mapping) SBDR(a, b addr.Phys) bool {
	return m.SameBank(a, b) && a.Extract(m.RowBits) != b.Extract(m.RowBits)
}

// RowNeighbor returns the physical address at the same bank and column,
// rowDelta rows away from p's row. Used by double-sided rowhammer to find
// aggressor rows.
func (m *Mapping) RowNeighbor(p addr.Phys, rowDelta int64) (addr.Phys, error) {
	d := m.Decode(p)
	row := int64(d.Row) + rowDelta
	if row < 0 || uint64(row) >= m.NumRows() {
		return 0, fmt.Errorf("mapping: row %d + %d out of range", d.Row, rowDelta)
	}
	d.Row = uint64(row)
	return m.Encode(d)
}

// BankBits returns the union of bits used by all bank functions, ascending.
func (m *Mapping) BankBits() []uint {
	var mask uint64
	for _, f := range m.BankFuncs {
		mask |= f
	}
	return addr.BitsFromMask(mask)
}

// SharedRowBits returns row bits that also participate in bank functions
// (the paper's "shared bits").
func (m *Mapping) SharedRowBits() []uint { return intersect(m.RowBits, m.BankBits()) }

// SharedColBits returns column bits that also participate in bank
// functions.
func (m *Mapping) SharedColBits() []uint { return intersect(m.ColBits, m.BankBits()) }

func intersect(a, b []uint) []uint {
	mb := addr.MaskFromBits(b)
	var out []uint
	for _, x := range a {
		if mb&(uint64(1)<<x) != 0 {
			out = append(out, x)
		}
	}
	return out
}

// Canonicalize returns a copy with bank functions replaced by the
// minimal-weight basis of their span (fewest-bit functions first, as the
// paper prioritizes) and bit lists sorted. Two mappings that differ only
// by invertible linear recombination of bank functions canonicalize to the
// same value.
func (m *Mapping) Canonicalize() *Mapping {
	// Minimize over the whole span, not just the presented functions:
	// a basis of wide recombinations must still canonicalize to the
	// minimal-weight forms. The span is walked in Gray-code order, so
	// each element is the previous one with one function XORed in.
	span := m.BankFuncs
	if n := len(m.BankFuncs); n > 0 && n <= 16 {
		span = make([]uint64, 1<<n-1)
		var v uint64
		for sel := range span {
			v ^= m.BankFuncs[bits.TrailingZeros(uint(sel+1))]
			span[sel] = v
		}
	}
	// MinimizeByWeight returns the functions fewest bits first, then by
	// value.
	return &Mapping{
		BankFuncs: linalg.MinimizeByWeight(span),
		RowBits:   addr.SortedCopy(m.RowBits),
		ColBits:   addr.SortedCopy(m.ColBits),
		PhysBits:  m.PhysBits,
	}
}

// EquivalentTo reports whether two mappings define the same physical→DRAM
// partition: identical row and column bit sets and bank-function spans.
func (m *Mapping) EquivalentTo(o *Mapping) bool {
	if m.PhysBits != o.PhysBits {
		return false
	}
	if !addr.EqualBitSets(m.RowBits, o.RowBits) || !addr.EqualBitSets(m.ColBits, o.ColBits) {
		return false
	}
	return linalg.SpanEqual(linalg.NewMatrix(m.BankFuncs...), linalg.NewMatrix(o.BankFuncs...))
}

// FuncString renders the bank functions in the paper's notation,
// e.g. "(6), (14, 17), (15, 18), (16, 19)".
func (m *Mapping) FuncString() string {
	parts := make([]string, len(m.BankFuncs))
	for i, f := range m.BankFuncs {
		parts[i] = addr.FormatBits(addr.BitsFromMask(f))
	}
	return strings.Join(parts, ", ")
}

// String renders the full mapping in the paper's Table II style.
func (m *Mapping) String() string {
	return fmt.Sprintf("banks: %s | rows: %s | cols: %s",
		m.FuncString(), addr.FormatBitRanges(m.RowBits), addr.FormatBitRanges(m.ColBits))
}

// ParseFuncs parses the paper's bank-function notation, e.g.
// "(6), (14, 17), (15, 18)". Whitespace is ignored.
func ParseFuncs(s string) ([]uint64, error) {
	var funcs []uint64
	s = strings.TrimSpace(s)
	depth := 0
	start := -1
	for i, r := range s {
		switch r {
		case '(':
			if depth != 0 {
				return nil, fmt.Errorf("mapping: nested '(' at offset %d", i)
			}
			depth++
			start = i + 1
		case ')':
			if depth != 1 {
				return nil, fmt.Errorf("mapping: unmatched ')' at offset %d", i)
			}
			depth--
			var mask uint64
			for _, tok := range strings.Split(s[start:i], ",") {
				tok = strings.TrimSpace(tok)
				if tok == "" {
					continue
				}
				b, err := strconv.ParseUint(tok, 10, 6)
				if err != nil {
					return nil, fmt.Errorf("mapping: bad bit %q: %v", tok, err)
				}
				mask |= uint64(1) << b
			}
			if mask == 0 {
				return nil, fmt.Errorf("mapping: empty function at offset %d", i)
			}
			funcs = append(funcs, mask)
		}
	}
	if depth != 0 {
		return nil, fmt.Errorf("mapping: unterminated '('")
	}
	if len(funcs) == 0 {
		return nil, fmt.Errorf("mapping: no functions in %q", s)
	}
	return funcs, nil
}

// ParseBitRanges parses the paper's bit-range notation, e.g. "0~6, 8~13".
func ParseBitRanges(s string) ([]uint, error) {
	var bitsOut []uint
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if idx := strings.Index(part, "~"); idx >= 0 {
			lo, err := strconv.ParseUint(strings.TrimSpace(part[:idx]), 10, 6)
			if err != nil {
				return nil, fmt.Errorf("mapping: bad range start %q: %v", part, err)
			}
			hi, err := strconv.ParseUint(strings.TrimSpace(part[idx+1:]), 10, 6)
			if err != nil {
				return nil, fmt.Errorf("mapping: bad range end %q: %v", part, err)
			}
			if hi < lo {
				return nil, fmt.Errorf("mapping: inverted range %q", part)
			}
			for b := lo; b <= hi; b++ {
				bitsOut = append(bitsOut, uint(b))
			}
			continue
		}
		b, err := strconv.ParseUint(part, 10, 6)
		if err != nil {
			return nil, fmt.Errorf("mapping: bad bit %q: %v", part, err)
		}
		bitsOut = append(bitsOut, uint(b))
	}
	return addr.SortedCopy(bitsOut), nil
}
