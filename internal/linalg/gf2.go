// Package linalg implements linear algebra over GF(2) on 64-bit bit-vectors.
//
// DRAM bank address functions on Intel platforms are XOR folds of physical
// address bits, i.e. linear forms over GF(2). Deciding whether a candidate
// function is redundant (a linear combination of already-accepted
// functions), validating that a full address mapping is invertible, and
// canonicalizing sets of functions are all GF(2) matrix problems that this
// package solves.
//
// A vector is a uint64 whose set bits are the physical address bits
// participating in an XOR fold. A Matrix is a slice of such vectors (rows).
package linalg

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// Vec is a GF(2) vector of dimension ≤ 64, packed into a uint64.
type Vec = uint64

// Matrix is a list of GF(2) row vectors.
type Matrix struct {
	Rows []Vec
}

// NewMatrix builds a matrix from row vectors (copied).
func NewMatrix(rows ...Vec) *Matrix {
	return &Matrix{Rows: append([]Vec(nil), rows...)}
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	return NewMatrix(m.Rows...)
}

// AddRow appends a row.
func (m *Matrix) AddRow(v Vec) { m.Rows = append(m.Rows, v) }

// NumRows returns the number of rows.
func (m *Matrix) NumRows() int { return len(m.Rows) }

// Rank computes the GF(2) rank.
func (m *Matrix) Rank() int {
	var p pivots
	r := 0
	for _, v := range m.Rows {
		if p.add(v) {
			r++
		}
	}
	return r
}

// InSpan reports whether v lies in the row span of m.
func (m *Matrix) InSpan(v Vec) bool {
	var p pivots
	for _, row := range m.Rows {
		p.add(row)
	}
	return p.reduce(v) == 0
}

// pivots holds a reduced set of vectors by highest set bit: p[b] is the
// one vector whose highest set bit is b, or 0. The vectors are
// combinations of the ones added, and span what they span.
type pivots [64]Vec

// reduce XORs pivots into v until no pivot shares its highest set bit.
// The result is 0 exactly when v lies in the span of the pivots.
func (p *pivots) reduce(v Vec) Vec {
	for v != 0 {
		q := p[63-bits.LeadingZeros64(v)]
		if q == 0 {
			return v
		}
		v ^= q
	}
	return 0
}

// add reduces v and keeps what remains as a new pivot. It reports
// whether v was outside the span of the vectors added before.
func (p *pivots) add(v Vec) bool {
	v = p.reduce(v)
	if v == 0 {
		return false
	}
	p[63-bits.LeadingZeros64(v)] = v
	return true
}

// Independent reports whether the rows of m are linearly independent.
func (m *Matrix) Independent() bool {
	return m.Rank() == len(m.Rows)
}

// ReducedBasis returns a reduced-row-echelon basis of the row span,
// sorted by highest set bit descending. The zero vector never appears.
func (m *Matrix) ReducedBasis() []Vec {
	rows := append([]Vec(nil), m.Rows...)
	r := 0
	for col := 63; col >= 0; col-- {
		bit := uint64(1) << uint(col)
		pivot := -1
		for i := r; i < len(rows); i++ {
			if rows[i]&bit != 0 {
				pivot = i
				break
			}
		}
		if pivot < 0 {
			continue
		}
		rows[r], rows[pivot] = rows[pivot], rows[r]
		for i := 0; i < len(rows); i++ {
			if i != r && rows[i]&bit != 0 {
				rows[i] ^= rows[r]
			}
		}
		r++
	}
	basis := rows[:r]
	sort.Slice(basis, func(i, j int) bool { return basis[i] > basis[j] })
	return append([]Vec(nil), basis...)
}

// SpanEqual reports whether two matrices have the same row span.
func SpanEqual(a, b *Matrix) bool {
	ba := a.ReducedBasis()
	bb := b.ReducedBasis()
	if len(ba) != len(bb) {
		return false
	}
	for i := range ba {
		if ba[i] != bb[i] {
			return false
		}
	}
	return true
}

// MinimizeByWeight greedily selects a basis of the span of the candidate
// vectors preferring vectors with fewer set bits (and, on ties, smaller
// numeric value). This matches the paper's prioritization: functions with
// fewer bits take precedence and wider functions that are linear
// combinations of narrower ones are removed as redundant.
//
// The returned slice is a linearly independent set whose span equals the
// span of the input, chosen greedily and returned in (popcount, value)
// order: a candidate is picked when it is outside the span of the ones
// picked before it.
func MinimizeByWeight(cands []Vec) []Vec {
	sorted := slices.Clone(cands)
	slices.SortFunc(sorted, byWeight)
	var p pivots
	var out []Vec
	for _, v := range sorted {
		if p.add(v) {
			out = append(out, v)
		}
	}
	return out
}

// byWeight orders vectors by popcount, then by value.
func byWeight(a, b Vec) int {
	if c := cmp.Compare(bits.OnesCount64(a), bits.OnesCount64(b)); c != 0 {
		return c
	}
	return cmp.Compare(a, b)
}

// Solve finds x with M·x = b over GF(2), where M's rows are the matrix rows
// and x, b are bit vectors (bit i of b corresponds to row i; bit j of x to
// column j). Returns ok=false if no solution exists. When the system is
// underdetermined an arbitrary solution is returned.
func Solve(m *Matrix, b Vec) (x Vec, ok bool) {
	n := len(m.Rows)
	if n > 64 {
		panic(fmt.Sprintf("linalg: too many rows %d", n))
	}
	// Augmented rows: vector plus RHS bit stored separately.
	rows := append([]Vec(nil), m.Rows...)
	rhs := make([]uint64, n)
	for i := 0; i < n; i++ {
		rhs[i] = (uint64(b) >> uint(i)) & 1
	}
	pivCol := make([]int, 0, n)
	r := 0
	for col := 63; col >= 0 && r < n; col-- {
		bit := uint64(1) << uint(col)
		pivot := -1
		for i := r; i < n; i++ {
			if rows[i]&bit != 0 {
				pivot = i
				break
			}
		}
		if pivot < 0 {
			continue
		}
		rows[r], rows[pivot] = rows[pivot], rows[r]
		rhs[r], rhs[pivot] = rhs[pivot], rhs[r]
		for i := 0; i < n; i++ {
			if i != r && rows[i]&bit != 0 {
				rows[i] ^= rows[r]
				rhs[i] ^= rhs[r]
			}
		}
		pivCol = append(pivCol, col)
		r++
	}
	// Inconsistency: zero row with nonzero RHS.
	for i := r; i < n; i++ {
		if rows[i] == 0 && rhs[i] != 0 {
			return 0, false
		}
	}
	var sol Vec
	for i := 0; i < r; i++ {
		if rhs[i] != 0 {
			sol |= uint64(1) << uint(pivCol[i])
		}
	}
	return sol, true
}

// Popcount returns the number of set bits of v.
func Popcount(v Vec) int { return bits.OnesCount64(v) }

// Nullspace returns a basis of {f : parity(x & f) = 0 for every x in
// constraints}, with f restricted to the bits set in universe. It solves
// the homogeneous GF(2) system whose equations are the constraint vectors
// and whose unknowns are the universe bits.
func Nullspace(constraints []Vec, universe Vec) []Vec {
	unk := make([]uint, 0, 64)
	for b := uint(0); b < 64; b++ {
		if universe&(uint64(1)<<b) != 0 {
			unk = append(unk, b)
		}
	}
	n := len(unk)
	if n == 0 {
		return nil
	}
	// Re-index constraints into the unknown space.
	rows := make([]Vec, 0, len(constraints))
	for _, c := range constraints {
		var r Vec
		for j, b := range unk {
			if c&(uint64(1)<<b) != 0 {
				r |= uint64(1) << uint(j)
			}
		}
		if r != 0 {
			rows = append(rows, r)
		}
	}
	// Row-reduce; track pivot columns (in unknown-index space).
	pivotOf := make(map[int]Vec) // pivot column -> reduced row
	for _, r := range rows {
		for r != 0 {
			col := 63 - bits.LeadingZeros64(r)
			if p, ok := pivotOf[col]; ok {
				r ^= p
				continue
			}
			pivotOf[col] = r
			break
		}
	}
	// Back-substitute to reduced echelon form.
	cols := make([]int, 0, len(pivotOf))
	for c := range pivotOf {
		cols = append(cols, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(cols)))
	for _, c := range cols {
		for _, c2 := range cols {
			if c2 > c && pivotOf[c2]&(uint64(1)<<uint(c)) != 0 {
				pivotOf[c2] ^= pivotOf[c]
			}
		}
	}
	// Free columns generate the nullspace basis.
	var basis []Vec
	for j := 0; j < n; j++ {
		if _, isPivot := pivotOf[j]; isPivot {
			continue
		}
		// Solution with free var j = 1, other free vars = 0.
		var sol Vec // in unknown-index space
		sol |= uint64(1) << uint(j)
		for c, row := range pivotOf {
			if row&(uint64(1)<<uint(j)) != 0 {
				sol |= uint64(1) << uint(c)
			}
		}
		// Map back to real bit positions.
		var f Vec
		for idx, b := range unk {
			if sol&(uint64(1)<<uint(idx)) != 0 {
				f |= uint64(1) << b
			}
		}
		basis = append(basis, f)
	}
	return basis
}
