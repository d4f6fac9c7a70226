package matrix

import (
	"fmt"
	"math/bits"
	"sync"
)

// maxPooledCells bounds the slabs the pool keeps, 1 MB of cells (n ≤ 362):
// a rare wider matrix is allocated as New would and goes back to the
// collector instead of pinning its storage in the pool.
const (
	maxPooledClass = 17
	maxPooledCells = 1 << maxPooledClass
)

// slabs are the pool's size classes: class k holds matrices whose storage
// has room for at least 2^k cells, and Acquire draws from the smallest
// class that fits n², so an n = 64 slab never answers an n = 128 request
// and mixed-n traffic keeps one warm slab per class instead of trading
// slabs back and forth.
var slabs [maxPooledClass + 1]sync.Pool

// Acquire returns an n×n all-zero matrix that carries no summary, drawn
// from a pool of recycled matrices when one of its size class is there. It
// panics on n < 1, a programmer error as out-of-range indices are.
//
// The matrix is the caller's until it calls Recycle; it may also simply
// drop it, and the collector takes it as it takes one from New.
func Acquire(n int) *Matrix {
	m, dirty := acquire(n)
	if dirty {
		clear(m.cells)
	}
	return m
}

// AcquireClone is Clone into a pooled matrix: m's entries and summary in
// storage from the pool Acquire draws on, for a scratch copy the caller
// gives back with Recycle.
func AcquireClone(m *Matrix) *Matrix {
	c, _ := acquire(m.n)
	copy(c.cells, m.cells)
	c.sum, c.sumOK = m.sum, m.sumOK
	return c
}

// acquire returns an n×n matrix with no summary; dirty reports that its
// entries are whatever a recycled slab last held rather than zeros.
func acquire(n int) (m *Matrix, dirty bool) {
	if n < 1 {
		panic(fmt.Sprintf("matrix: Acquire dimension %d", n))
	}
	cells := n * n
	if cells > maxPooledCells {
		return &Matrix{n: n, cells: make([]int64, cells)}, false
	}
	k := bits.Len(uint(cells - 1)) // the smallest k with 2^k ≥ n²
	m, dirty = slabs[k].Get().(*Matrix)
	if !dirty {
		m = &Matrix{cells: make([]int64, 1<<k)}
	}
	m.n, m.cells, m.sumOK = n, m.cells[:cells], false
	return m, dirty
}

// Recycle hands m's storage back to the pool Acquire draws on; a nil m is
// a no-op. m must not be used afterwards, by the caller or anyone it shared
// m with: the next Acquire of its size class gets the same storage. A
// matrix of any origin may be recycled, and one too large for the pool is
// left to the collector.
func (m *Matrix) Recycle() {
	if m == nil || cap(m.cells) == 0 || cap(m.cells) > maxPooledCells {
		return
	}
	k := bits.Len(uint(cap(m.cells))) - 1 // the largest k with 2^k ≤ cap
	// An emptied header makes a stale reader panic on its first index
	// until the storage is handed out again.
	m.n, m.cells, m.sumOK = 0, m.cells[:0], false
	slabs[k].Put(m)
}
