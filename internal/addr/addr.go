// Package addr provides physical-address bit manipulation primitives used
// throughout the DRAMDig reproduction: bit extraction and deposition, XOR
// folds (parity of masked bits), bit-set utilities and mask arithmetic.
//
// A physical address is modelled as a 64-bit unsigned integer. Bit 0 is the
// least significant bit (byte granularity); DRAM-relevant bits typically
// live in [3, 35) on the machines the paper studies.
package addr

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Phys is a physical memory address.
type Phys uint64

// Bit reports the value (0 or 1) of bit i of the address.
func (p Phys) Bit(i uint) uint64 {
	return (uint64(p) >> i) & 1
}

// SetBit returns a copy of p with bit i set to v (v must be 0 or 1).
func (p Phys) SetBit(i uint, v uint64) Phys {
	if v&1 == 1 {
		return p | Phys(uint64(1)<<i)
	}
	return p &^ Phys(uint64(1)<<i)
}

// FlipBit returns a copy of p with bit i inverted.
func (p Phys) FlipBit(i uint) Phys {
	return p ^ Phys(uint64(1)<<i)
}

// FlipMask returns a copy of p with every bit in mask inverted.
func (p Phys) FlipMask(mask uint64) Phys {
	return p ^ Phys(mask)
}

// XorFold returns the parity (0 or 1) of the bits of p selected by mask.
// This is exactly the output of an Intel-style bank address function whose
// input bits are the set bits of mask.
func (p Phys) XorFold(mask uint64) uint64 {
	return uint64(bits.OnesCount64(uint64(p)&mask) & 1)
}

// Extract gathers the bits of p at the given positions (lowest position
// becomes bit 0 of the result, next position bit 1, and so on). positions
// must be sorted ascending.
func (p Phys) Extract(positions []uint) uint64 {
	var v uint64
	for i, pos := range positions {
		v |= p.Bit(pos) << uint(i)
	}
	return v
}

// Deposit scatters the low bits of v into a copy of p at the given
// positions (bit 0 of v goes to positions[0], etc.). positions must be
// sorted ascending.
func (p Phys) Deposit(positions []uint, v uint64) Phys {
	for i, pos := range positions {
		p = p.SetBit(pos, (v>>uint(i))&1)
	}
	return p
}

// String formats the address in hex.
func (p Phys) String() string { return fmt.Sprintf("0x%x", uint64(p)) }

// MaskFromBits builds a mask with the given bit positions set.
func MaskFromBits(positions []uint) uint64 {
	var m uint64
	for _, b := range positions {
		m |= uint64(1) << b
	}
	return m
}

// BitsFromMask lists the set bit positions of mask, ascending.
func BitsFromMask(mask uint64) []uint {
	out := make([]uint, 0, bits.OnesCount64(mask))
	for mask != 0 {
		b := uint(bits.TrailingZeros64(mask))
		out = append(out, b)
		mask &^= uint64(1) << b
	}
	return out
}

// RangeMask returns a mask with bits [lo, hi] (inclusive) set.
// It panics if hi < lo or hi > 63.
func RangeMask(lo, hi uint) uint64 {
	if hi < lo || hi > 63 {
		panic(fmt.Sprintf("addr: invalid range [%d, %d]", lo, hi))
	}
	if hi == 63 {
		return ^uint64(0) << lo
	}
	return (uint64(1) << (hi + 1)) - (uint64(1) << lo)
}

// MinMax returns the minimum and maximum of a non-empty set of bit
// positions. It panics on an empty slice.
func MinMax(positions []uint) (lo, hi uint) {
	if len(positions) == 0 {
		panic("addr: MinMax of empty set")
	}
	lo, hi = positions[0], positions[0]
	for _, b := range positions[1:] {
		if b < lo {
			lo = b
		}
		if b > hi {
			hi = b
		}
	}
	return lo, hi
}

// SortedCopy returns a sorted copy of the bit positions.
func SortedCopy(positions []uint) []uint {
	out := append([]uint(nil), positions...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FormatBits renders bit positions in the paper's tuple notation,
// e.g. "(14, 18)".
func FormatBits(positions []uint) string {
	s := SortedCopy(positions)
	parts := make([]string, len(s))
	for i, b := range s {
		parts[i] = fmt.Sprintf("%d", b)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// FormatBitRanges renders a sorted set of bits as compact ranges in the
// paper's style, e.g. "0~6, 8~13".
func FormatBitRanges(positions []uint) string {
	if len(positions) == 0 {
		return "-"
	}
	s := SortedCopy(positions)
	var parts []string
	start, prev := s[0], s[0]
	flush := func() {
		if start == prev {
			parts = append(parts, fmt.Sprintf("%d", start))
		} else {
			parts = append(parts, fmt.Sprintf("%d~%d", start, prev))
		}
	}
	for _, b := range s[1:] {
		if b == prev+1 {
			prev = b
			continue
		}
		flush()
		start, prev = b, b
	}
	flush()
	return strings.Join(parts, ", ")
}

// EqualBitSets reports whether two position slices contain the same set of
// bits (order-insensitive, duplicates ignored).
func EqualBitSets(a, b []uint) bool {
	return MaskFromBits(a) == MaskFromBits(b)
}

// Combinations invokes fn with every k-subset of the n given bit positions,
// encoded as a mask. Iteration stops early if fn returns false.
// The positions slice is not modified.
func Combinations(positions []uint, k int, fn func(mask uint64) bool) {
	n := len(positions)
	if k < 0 || k > n {
		return
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		var mask uint64
		for _, i := range idx {
			mask |= uint64(1) << positions[i]
		}
		if !fn(mask) {
			return
		}
		// advance
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// SubMasks invokes fn with every non-empty submask of mask, in increasing
// popcount-then-value order grouped by popcount (popcount 1 first).
// Iteration stops early if fn returns false.
func SubMasks(mask uint64, fn func(sub uint64) bool) {
	positions := BitsFromMask(mask)
	for k := 1; k <= len(positions); k++ {
		stop := false
		Combinations(positions, k, func(sub uint64) bool {
			if !fn(sub) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
	}
}
