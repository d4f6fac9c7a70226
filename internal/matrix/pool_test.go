package matrix

import (
	"runtime"
	"sync"
	"testing"
)

// raceBuild is set in a -race build (race_test.go).
var raceBuild bool

// scribble fills every cell of m, through the view a producer of a fresh
// matrix writes, with a non-zero pattern, and gives m a summary.
func scribble(m *Matrix) {
	for k, cells := 0, m.Cells(); k < len(cells); k++ {
		cells[k] = 7 + int64(k)
	}
	m.SetSummary(Summary{Rho: 1, Tau: 1, Total: 1, NonZeros: 1, MaxEntry: 1})
}

// TestAcquireAfterDirtyRecycle: whatever a recycled matrix was left
// holding, Acquire hands out an all-zero matrix of the asked size with no
// summary, and AcquireClone an exact copy.
func TestAcquireAfterDirtyRecycle(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 63, 64, 100, 128, 362, 363} {
		for range 3 {
			m := Acquire(n)
			scribble(m)
			m.Recycle()
		}
		m := Acquire(n)
		if m.N() != n || len(m.Cells()) != n*n {
			t.Fatalf("Acquire(%d): n = %d, %d cells", n, m.N(), len(m.Cells()))
		}
		if !m.IsZero() || m.HasNegative() || m.MaxEntry() != 0 {
			t.Errorf("Acquire(%d) after a dirty recycle is not all zero", n)
		}
		if _, ok := m.Summary(); ok {
			t.Errorf("Acquire(%d) carries a summary", n)
		}
		m.Recycle()

		src := Acquire(n)
		scribble(src)
		// Cells is the matrix's own storage, row-major.
		if i, j := n/2, n-1; src.At(i, j) != 7+int64(i*n+j) {
			t.Errorf("n = %d: At(%d, %d) = %d after writing %d through Cells", n, i, j, src.At(i, j), 7+i*n+j)
		}
		c := AcquireClone(src)
		if !c.Equal(src) {
			t.Errorf("AcquireClone(n = %d) differs from its source", n)
		}
		if cs, ok := c.Summary(); !ok || cs != src.sum {
			t.Errorf("AcquireClone(n = %d) summary %+v %v, source %+v", n, cs, ok, src.sum)
		}
		c.Set(0, 0, 1)
		if src.At(0, 0) == 1 {
			t.Errorf("AcquireClone(n = %d) aliases its source", n)
		}
		c.Recycle()
		src.Recycle()
	}
}

// TestPoolSizeClasses: a request is answered from the smallest size class
// that fits it, so a large slab never serves a small matrix, and a matrix
// of any origin can be recycled into the class its storage fills.
func TestPoolSizeClasses(t *testing.T) {
	big := Acquire(128)
	big.Recycle()
	if m := Acquire(64); cap(m.cells) >= 128*128 {
		t.Errorf("Acquire(64) got the storage of a 128-port matrix")
	}
	for n := 1; n <= 400; n++ {
		m := Acquire(n)
		if n*n <= maxPooledCells && cap(m.cells) >= 4*n*n {
			t.Errorf("Acquire(%d) got storage for %d cells", n, cap(m.cells))
		}
		m.Recycle()
	}
	plain, _ := New(70) // 4900 cells: class 12, which holds 4096
	plain.Recycle()
	if m := Acquire(64); len(m.cells) != 64*64 || !m.IsZero() {
		t.Errorf("Acquire(64) after recycling a 70-port matrix: %d cells", len(m.cells))
	}
}

// TestRecycleEdges: a nil matrix recycles as a no-op, one past the pool's
// cap is left as it is, and a recycled header panics on its first index.
func TestRecycleEdges(t *testing.T) {
	var none *Matrix
	none.Recycle()
	wide := Acquire(363) // 131 769 cells, past maxPooledCells
	wide.Recycle()
	if wide.N() != 363 {
		t.Errorf("a matrix too large for the pool was taken: n = %d", wide.N())
	}
	m := Acquire(3)
	m.Recycle()
	for name, f := range map[string]func(){
		"At after Recycle": func() { m.At(0, 0) },
		"Acquire(0)":       func() { Acquire(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestPoolMixedSizesAllocateNothing: alternating port counts keep one warm
// slab per size class, so a warm acquire-recycle cycle allocates nothing
// (skipped under -race, whose sync.Pool drops at random).
func TestPoolMixedSizesAllocateNothing(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts under -race measure the detector's sync.Pool")
	}
	src := Acquire(64)
	defer src.Recycle()
	allocs := testing.AllocsPerRun(100, func() {
		a := Acquire(64)
		b := Acquire(128)
		c := AcquireClone(src)
		a.Recycle()
		b.Recycle()
		c.Recycle()
	})
	if allocs != 0 {
		t.Errorf("%.1f allocations per warm mixed-size cycle, want 0", allocs)
	}
}

// TestPoolConcurrentUse: goroutines acquiring, filling and recycling
// matrices of mixed sizes at once never share storage: each finds its own
// pattern intact when it recycles. Run it with -race -count=10.
func TestPoolConcurrentUse(t *testing.T) {
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range 200 {
				n := 1 + (g*31+it*7)%40
				m := Acquire(n)
				cells := m.Cells()
				for k := range cells {
					cells[k] = int64(g<<20 | k)
				}
				runtime.Gosched()
				for k, v := range cells {
					if v != int64(g<<20|k) {
						t.Errorf("goroutine %d: cell %d of a %d-port matrix reads %d", g, k, n, v)
						return
					}
				}
				m.Recycle()
			}
		}()
	}
	wg.Wait()
}
