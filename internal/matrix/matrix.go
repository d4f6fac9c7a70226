// Package matrix implements the square integer demand matrices that underlie
// every scheduling algorithm in this repository.
//
// A demand matrix D has one row per ingress port and one column per egress
// port of the switching fabric; entry D[i,j] is the time (in integer ticks)
// needed to transmit all buffered data from ingress i to egress j at the
// normalized circuit bandwidth. Integer ticks keep Birkhoff–von Neumann
// decomposition and regularization exact: no floating-point residue is ever
// produced.
package matrix

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// ErrDimension reports a size mismatch or an invalid matrix dimension.
var ErrDimension = errors.New("matrix: invalid dimension")

// ErrNegative reports a negative demand entry, which no scheduling model in
// this repository accepts.
var ErrNegative = errors.New("matrix: negative entry")

// Matrix is a dense square matrix of non-negative int64 demands.
//
// The zero value is not usable; construct matrices with New, FromRows or
// Acquire.
// Methods with index arguments follow slice semantics: out-of-range indices
// panic, as they indicate a programmer error rather than bad input data.
type Matrix struct {
	n     int
	cells []int64
	// sum is the digest SetSummary was handed or Clone copied, meaningful
	// only while sumOK. Every mutator clears sumOK with one store; readers
	// never set it, so a matrix shared read-only between goroutines stays
	// race-free and IsZero on a residual mutated every step never pays for a
	// recompute.
	sum   Summary
	sumOK bool
}

// Summary is the scalar digest of a matrix that a producer touching every
// cell anyway (the request parser) accumulates on its way and installs with
// SetSummary, so the O(n²) scans behind ρ, τ, Total, NonZeros, IsZero and
// MaxEntry become field reads on a request's own demand.
type Summary struct {
	// Rho is the maximum row or column sum; meaningless when Overflow.
	Rho int64
	// Tau is the maximum number of non-zero entries in a row or column.
	Tau int
	// Total is the sum of all entries, wrapping as Matrix.Total does.
	Total int64
	// NonZeros is the number of strictly positive entries.
	NonZeros int
	// MaxEntry is the largest entry.
	MaxEntry int64
	// Overflow reports that some row or column sum exceeds int64.
	Overflow bool
}

// New returns an n×n all-zero matrix.
func New(n int) (*Matrix, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: n=%d", ErrDimension, n)
	}
	return &Matrix{n: n, cells: make([]int64, n*n)}, nil
}

// FromRows builds a matrix from row slices. All rows must have length equal
// to the number of rows, and every entry must be non-negative.
func FromRows(rows [][]int64) (*Matrix, error) {
	n := len(rows)
	if n == 0 {
		return nil, fmt.Errorf("%w: empty row set", ErrDimension)
	}
	m, err := New(n)
	if err != nil {
		return nil, err
	}
	for i, row := range rows {
		if len(row) != n {
			return nil, fmt.Errorf("%w: row %d has %d entries, want %d", ErrDimension, i, len(row), n)
		}
		for j, v := range row {
			if v < 0 {
				return nil, fmt.Errorf("%w: entry (%d,%d)=%d", ErrNegative, i, j, v)
			}
			m.cells[i*n+j] = v
		}
	}
	return m, nil
}

// Summary returns the digest the matrix carries and whether it carries one:
// it was given one by SetSummary, or cloned from such a matrix, and has not
// been written since.
func (m *Matrix) Summary() (Summary, bool) { return m.sum, m.sumOK }

// N returns the matrix dimension.
func (m *Matrix) N() int { return m.n }

// Cells returns the entries in row-major order (entry (i, j) at index
// i·N()+j) as a view of the matrix's own storage, for bulk readers such as
// hashing and encoding. Callers must not write through it, with one
// exception: the producer of a matrix fresh from Acquire may fill it
// through this view before anything else sees the matrix, and then install
// what it accumulated on the way with SetSummary.
func (m *Matrix) Cells() []int64 { return m.cells }

// SetSummary installs sum as m's digest. It is the caller's word that sum
// is exactly what m holds, none of it negative: only a producer that read
// every cell it wrote as an unsigned value (the request parser) may call it.
func (m *Matrix) SetSummary(sum Summary) { m.sum, m.sumOK = sum, true }

// At returns entry (i, j).
func (m *Matrix) At(i, j int) int64 { return m.cells[i*m.n+j] }

// Set overwrites entry (i, j) with v.
func (m *Matrix) Set(i, j int, v int64) { m.cells[i*m.n+j] = v; m.sumOK = false }

// Add adds v to entry (i, j).
func (m *Matrix) Add(i, j int, v int64) { m.cells[i*m.n+j] += v; m.sumOK = false }

// Clone returns a deep copy of m, summary included.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{n: m.n, cells: make([]int64, len(m.cells)), sum: m.sum, sumOK: m.sumOK}
	copy(c.cells, m.cells)
	return c
}

// RowSums returns the sum of each row.
func (m *Matrix) RowSums() []int64 {
	sums := make([]int64, m.n)
	for i := 0; i < m.n; i++ {
		var s int64
		row := m.cells[i*m.n : (i+1)*m.n]
		for _, v := range row {
			s += v
		}
		sums[i] = s
	}
	return sums
}

// ColSums returns the sum of each column.
func (m *Matrix) ColSums() []int64 {
	sums := make([]int64, m.n)
	for i := 0; i < m.n; i++ {
		row := m.cells[i*m.n : (i+1)*m.n]
		for j, v := range row {
			sums[j] += v
		}
	}
	return sums
}

// MaxRowColSum returns ρ, the maximum over all row sums and column sums.
// ρ lower-bounds the transmission time of any schedule that satisfies m,
// because each port moves at most one unit of demand per tick.
func (m *Matrix) MaxRowColSum() int64 {
	if m.sumOK && !m.sum.Overflow {
		return m.sum.Rho
	}
	_, _, rho := m.sums()
	return rho
}

// sums returns the row sums, the column sums and their maximum ρ (at least
// 0) from one scan each.
func (m *Matrix) sums() (rows, cols []int64, rho int64) {
	rows, cols = m.RowSums(), m.ColSums()
	return rows, cols, max(0, slices.Max(rows), slices.Max(cols))
}

// CheckedMaxRowColSum is MaxRowColSum reporting ok = false when a row or
// column sum of the non-negative entries overflows int64, in which case ρ
// is not representable and request validation must refuse the demand.
func (m *Matrix) CheckedMaxRowColSum() (rho int64, ok bool) {
	if m.sumOK {
		return m.sum.Rho, !m.sum.Overflow
	}
	n, cells := m.n, m.cells
	for i := 0; i < n; i++ {
		var row, col int64
		for j := 0; j < n; j++ {
			row += cells[i*n+j]
			col += cells[j*n+i]
			if row < 0 || col < 0 {
				return 0, false
			}
		}
		rho = max(rho, row, col)
	}
	return rho, true
}

// MaxRowColNonZeros returns τ, the maximum number of non-zero entries in any
// single row or column. Any valid circuit schedule needs at least τ distinct
// circuit establishments, so τ·δ lower-bounds total reconfiguration delay.
func (m *Matrix) MaxRowColNonZeros() int {
	if m.sumOK {
		return m.sum.Tau
	}
	rowCnt := make([]int, m.n)
	colCnt := make([]int, m.n)
	for i := 0; i < m.n; i++ {
		row := m.cells[i*m.n : (i+1)*m.n]
		for j, v := range row {
			if v > 0 {
				rowCnt[i]++
				colCnt[j]++
			}
		}
	}
	tau := 0
	for i := 0; i < m.n; i++ {
		if rowCnt[i] > tau {
			tau = rowCnt[i]
		}
		if colCnt[i] > tau {
			tau = colCnt[i]
		}
	}
	return tau
}

// Cell is one strictly positive entry of a matrix, as collected by
// AppendNonZeros.
type Cell struct {
	I, J int
	V    int64
}

// ForEachNonZero calls f for every strictly positive entry in row-major
// order. It walks the backing cells directly, so sparse consumers (BvN
// support scans, residual drain loops) visit only the support instead of
// paying per-cell At indexing over the dense n² grid.
func (m *Matrix) ForEachNonZero(f func(i, j int, v int64)) {
	idx := 0
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			if v := m.cells[idx]; v > 0 {
				f(i, j, v)
			}
			idx++
		}
	}
}

// AppendNonZeros appends every strictly positive entry to buf in row-major
// order and returns the extended slice. Passing a retained buffer's buf[:0]
// makes repeated support scans allocation-free once the buffer reaches its
// steady-state capacity, the discipline the sparse scheduling paths follow.
func (m *Matrix) AppendNonZeros(buf []Cell) []Cell {
	m.ForEachNonZero(func(i, j int, v int64) {
		buf = append(buf, Cell{I: i, J: j, V: v})
	})
	return buf
}

// NonZeros returns the number of strictly positive entries.
func (m *Matrix) NonZeros() int {
	if m.sumOK {
		return m.sum.NonZeros
	}
	cnt := 0
	for _, v := range m.cells {
		if v > 0 {
			cnt++
		}
	}
	return cnt
}

// Density returns NonZeros / N², the fabric-wide density used to classify
// coflows into the paper's sparse / normal / dense classes.
func (m *Matrix) Density() float64 {
	return float64(m.NonZeros()) / float64(m.n*m.n)
}

// Total returns the sum of all entries.
func (m *Matrix) Total() int64 {
	if m.sumOK {
		return m.sum.Total
	}
	var s int64
	for _, v := range m.cells {
		s += v
	}
	return s
}

// MaxEntry returns the largest entry.
func (m *Matrix) MaxEntry() int64 {
	if m.sumOK {
		return m.sum.MaxEntry
	}
	var mx int64
	for _, v := range m.cells {
		if v > mx {
			mx = v
		}
	}
	return mx
}

// IsZero reports whether every entry is zero.
func (m *Matrix) IsZero() bool {
	if m.sumOK {
		return m.sum.NonZeros == 0
	}
	for _, v := range m.cells {
		if v != 0 {
			return false
		}
	}
	return true
}

// HasNegative reports whether any entry is negative. Scheduling code uses it
// as a cheap invariant check after subtracting permutation matrices.
func (m *Matrix) HasNegative() bool {
	for _, v := range m.cells {
		if v < 0 {
			return true
		}
	}
	return false
}

// Equal reports whether m and o have identical dimension and entries.
func (m *Matrix) Equal(o *Matrix) bool {
	if o == nil || m.n != o.n {
		return false
	}
	for i, v := range m.cells {
		if o.cells[i] != v {
			return false
		}
	}
	return true
}

// DoublyStochasticValue returns the common row/column sum if m is doubly
// stochastic in the generalized sense used by Birkhoff's theorem (all row
// sums and all column sums equal one constant), and reports whether it is.
func (m *Matrix) DoublyStochasticValue() (int64, bool) {
	rows := m.RowSums()
	cols := m.ColSums()
	want := rows[0]
	for _, s := range rows {
		if s != want {
			return 0, false
		}
	}
	for _, s := range cols {
		if s != want {
			return 0, false
		}
	}
	return want, true
}

// Sum returns the entrywise sum of the given matrices, which must all share
// one dimension. It is used to aggregate the demand of a coflow group.
func Sum(ms []*Matrix) (*Matrix, error) {
	if len(ms) == 0 {
		return nil, fmt.Errorf("%w: no matrices", ErrDimension)
	}
	out := ms[0].Clone()
	for _, m := range ms[1:] {
		if m.n != out.n {
			return nil, fmt.Errorf("%w: %d vs %d", ErrDimension, out.n, m.n)
		}
		out.sumOK = false
		for i, v := range m.cells {
			out.cells[i] += v
		}
	}
	return out, nil
}

// String renders the matrix as rows of space-separated integers, mainly for
// tests and debugging output.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(strconv.FormatInt(m.At(i, j), 10))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
