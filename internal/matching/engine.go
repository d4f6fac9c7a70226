package matching

import (
	"fmt"
	"math/bits"

	"reco/internal/matrix"
)

// Order selects which extraction an Engine serves, by how it holds the
// support.
type Order int

const (
	// Descending queues the cells not yet in the matching graph to be
	// handed out one value at a time, largest first, the order the
	// threshold-descending bottleneck search inserts edges in. It serves
	// Bottleneck and Extract.
	Descending Order = iota
	// RowMajor keeps the whole support in the matching graph, which makes
	// ExtractAny reproduce the classic scan-the-residual first-fit
	// extraction exactly.
	RowMajor
)

// Engine is an incremental sparse matching engine over the positive support
// of a square demand matrix. It is the hot core of every Birkhoff–von
// Neumann decomposition in this repository: instead of rescanning and
// re-sorting the full N×N matrix and re-running Hopcroft–Karp from scratch
// for each extracted term, the Engine scans the support once and then
// repairs it incrementally — subtracting a term only touches the N matched
// entries.
//
// The support lives in a row-major index (a bitset of cells per row, row
// starts, current values). A Descending engine splits it by a threshold: the
// cells at or above it are the edges of the graph, the cells below it wait in
// a monotone radix queue (descQueue) that hands them out one value at a time,
// largest first, and is never sorted. A bottleneck value is found by a
// threshold-descending pass over that queue: edges are inserted in
// non-increasing value order and the matching grows by augmentation only, so
// the max–min threshold of an E-edge support costs one O(E·√V) sweep rather
// than O(log E) full matching runs. The pass stops with the threshold at the
// bottleneck, and the permutation is the canonical matching of the graph —
// Hopcroft–Karp from empty, in row-major order — so it is what the classic
// binary search over thresholds returned and depends only on the residual,
// not on the path that found the value.
//
// From one call to the next the engine keeps the graph instead of rebuilding
// it. Entries only ever shrink, so a perfect matching of the new residual
// with minimum entry t was one of the old residual too: the bottleneck never
// rises from one term to the next. Extract therefore first matches the graph
// it already holds; if that matching is perfect, the previous coefficient is
// the bottleneck again and the matching is already the canonical one — on
// regularized demand, where every coefficient sits on the δ grid, most terms
// end there (Trials). Only when it is not perfect does the sweep resume,
// below the previous coefficient.
//
// An Engine is not safe for concurrent use. Reset makes it reusable with no
// steady-state allocation; the permutations Extract, ExtractAny and
// Bottleneck return are caller-owned, while Step logs its terms in the
// engine's own buffer for the caller to copy out once (Logged).
type Engine struct {
	n     int
	order Order

	// Row-major index of the support as Reset found it: bit v of row u of
	// cells (g.words words per row) is the cell (u, v), and the values of
	// row u's cells are vals[rowStart[u]:rowStart[u+1]], columns ascending.
	// vals holds current values; an extracted cell stays in place at zero.
	cells     []uint64
	rowStart  []int32
	vals      []int64
	pos       []int32 // index of each row's matched cell, per extraction
	support   int     // cells still positive
	remaining int64   // total value left in the support

	// g holds exactly the cells with value at least thr: the whole support
	// of a RowMajor engine (thr = 1), and of a Descending one nothing before
	// the first bottleneck is found (thr = 0), then the cells at or above
	// the last one found. On a Descending engine the positive cells below
	// thr wait in queue, by their index k into vals; cell k is (rowOf[k],
	// colOf[k]).
	g     Graph
	thr   int64
	queue descQueue
	rowOf []int32
	colOf []int32
	covL  []uint64 // sweep scratch: left vertices with an inserted edge
	covR  []uint64 // and right ones

	trials, hits int

	// The term log Step appends to: term t's matching is
	// logPerms[t·n : (t+1)·n], its coefficient logCoefs[t].
	logPerms []int32
	logCoefs []int64
}

// NewEngine returns an Engine over m's positive support with the given
// entry order. The matrix is read once and never retained or modified.
func NewEngine(m *matrix.Matrix, order Order) *Engine {
	e := &Engine{}
	e.Reset(m, order)
	return e
}

// Reset re-targets the engine at m's positive support, reusing all backing
// storage from previous use.
func (e *Engine) Reset(m *matrix.Matrix, order Order) {
	n := m.N()
	e.n = n
	e.order = order
	e.rowStart = grow32(e.rowStart, n+1)
	e.pos = grow32(e.pos, n)
	e.vals, e.rowOf, e.colOf = e.vals[:0], e.rowOf[:0], e.colOf[:0]
	e.remaining = 0
	e.trials, e.hits = 0, 0
	e.logPerms, e.logCoefs = e.logPerms[:0], e.logCoefs[:0]
	e.g.Reset(n)
	e.cells = grow64(e.cells, n*e.g.words)
	clear(e.cells)
	cells := m.Cells()
	top := int64(0)
	for i := 0; i < n; i++ {
		e.rowStart[i] = int32(len(e.vals))
		for j, v := range cells[i*n : (i+1)*n] {
			if v <= 0 {
				continue
			}
			if order == Descending {
				e.rowOf = append(e.rowOf, int32(i))
				e.colOf = append(e.colOf, int32(j))
				top = max(top, v)
			} else {
				e.g.addEdge32(int32(i), int32(j))
			}
			e.cells[i*e.g.words+j>>6] |= 1 << (j & 63)
			e.vals = append(e.vals, v)
			e.remaining += v
		}
	}
	e.rowStart[n] = int32(len(e.vals))
	e.support = len(e.vals)
	if order == Descending {
		e.thr = 0
		e.queue.reset(e.vals, top)
		for k := range e.vals {
			e.queue.push(int32(k))
		}
	} else {
		e.thr = 1
	}
}

// N returns the fabric dimension.
func (e *Engine) N() int { return e.n }

// Remaining returns the total value left in the support; zero means the
// matrix has been fully extracted.
func (e *Engine) Remaining() int64 { return e.remaining }

// Support returns the number of positive entries left.
func (e *Engine) Support() int { return e.support }

// Trials returns how many bottleneck searches since Reset first tried the
// previous bottleneck, and how many of those trials found it to be the
// bottleneck again (the rest fell back to the sweep).
func (e *Engine) Trials() (attempts, hits int) { return e.trials, e.hits }

// ForEachEntry calls f for every positive entry left in the support, in
// row-major order. Sparse consumers use it to materialize the residual after
// a partial extraction without rescanning the dense matrix.
func (e *Engine) ForEachEntry(f func(i, j int, w int64)) {
	w := e.g.words
	for u := 0; u < e.n; u++ {
		k := e.rowStart[u]
		for j, x := range e.cells[u*w : (u+1)*w] {
			for ; x != 0; x &= x - 1 {
				if val := e.vals[k]; val > 0 {
					f(u, j<<6+bits.TrailingZeros64(x), val)
				}
				k++
			}
		}
	}
}

// Bottleneck computes the max–min perfect matching of the current support:
// the perfect matching whose minimum entry value is maximized, and that
// value. The engine must be in Descending order. The support is not
// modified; the returned permutation is caller-owned.
func (e *Engine) Bottleneck() ([]int, int64, error) {
	val, err := e.solveBottleneck()
	if err != nil {
		return nil, 0, err
	}
	return e.g.permutation(), val, nil
}

// Extract computes the max–min perfect matching of the current support,
// subtracts its bottleneck value from the matched entries (removing entries
// that hit zero), and returns the matching and the subtracted coefficient —
// one Birkhoff–von Neumann term. The minimum matched entry always equals the
// bottleneck value, so the subtraction zeroes at least one entry and the
// support strictly shrinks; Extract until Remaining() hits zero is a
// complete max–min decomposition.
func (e *Engine) Extract() ([]int, int64, error) {
	e.mustBe(Descending)
	return e.extract()
}

// ExtractAny computes an arbitrary perfect matching of the current support,
// subtracts its minimum matched value, and returns the matching and the
// subtracted coefficient — one primitive (first-fit) Birkhoff–von Neumann
// term. The engine must be in RowMajor order: its graph always holds the
// whole support, so the matching is exactly the one a fresh Hopcroft–Karp
// run over the residual's row-major support graph would find.
func (e *Engine) ExtractAny() ([]int, int64, error) {
	e.mustBe(RowMajor)
	return e.extract()
}

func (e *Engine) extract() ([]int, int64, error) {
	coef, err := e.next()
	if err != nil {
		return nil, 0, err
	}
	perm := e.g.permutation()
	e.subtract(coef)
	return perm, coef, nil
}

// Step extracts the next term the engine's order serves — Extract's on a
// Descending engine, ExtractAny's on a RowMajor one — and appends it to the
// engine's term log instead of returning a caller-owned permutation, so a
// decomposition allocates its permutations once, when it copies the log out.
func (e *Engine) Step() error {
	coef, err := e.next()
	if err != nil {
		return err
	}
	e.logPerms = append(e.logPerms, e.g.matchL[:e.n]...)
	e.logCoefs = append(e.logCoefs, coef)
	e.subtract(coef)
	return nil
}

// Logged returns the terms Step has extracted since Reset: term t's matching
// is perms[t·N() : (t+1)·N()] (row i matched to column perms[t·N()+i]) and
// its coefficient coefs[t]. Both slices are the engine's, valid until the
// next Reset or Release.
func (e *Engine) Logged() (perms []int32, coefs []int64) { return e.logPerms, e.logCoefs }

// next leaves the next term's perfect matching in the graph, located, and
// returns its coefficient: the bottleneck value on a Descending engine, the
// smallest matched value of the canonical matching on a RowMajor one.
func (e *Engine) next() (int64, error) {
	if e.order == Descending {
		val, err := e.solveBottleneck()
		if err != nil {
			return 0, err
		}
		e.locate()
		return val, nil
	}
	if e.support < e.n {
		return 0, fmt.Errorf("%w: support has %d entries for %d rows", ErrNoPerfectMatching, e.support, e.n)
	}
	e.g.clearMatching()
	if e.g.augment() != e.n {
		return 0, fmt.Errorf("%w: support has no perfect matching", ErrNoPerfectMatching)
	}
	return e.locate(), nil
}

// mustBe panics unless the engine was reset in the order the calling
// extraction needs: the bottleneck search reads the queue, and
// first-fit needs the graph to hold the whole support.
func (e *Engine) mustBe(order Order) {
	if e.order != order {
		panic("matching: Extract and Bottleneck need a Descending engine, ExtractAny a RowMajor one")
	}
}

// solveBottleneck leaves the canonical max–min perfect matching in the graph
// and returns its bottleneck value, which thr then equals.
//
// If an earlier call left a threshold, it first matches the graph as it
// stands, canonically. The support has only shrunk since, so the bottleneck
// is at most thr; a perfect matching among the cells at or above thr shows
// it is thr, and being the canonical matching of exactly those cells it is
// the permutation to return. Otherwise no matching at thr is perfect, and
// the sweep goes on below it from this maximum matching.
func (e *Engine) solveBottleneck() (int64, error) {
	e.mustBe(Descending)
	if e.thr > 0 {
		e.trials++
		e.g.clearMatching()
		if e.g.augment() == e.n {
			e.hits++
			return e.thr, nil
		}
	}
	return e.sweep()
}

// sweep lowers thr to the bottleneck value: it moves cells from the queue
// into the graph until the graph has a perfect matching, then recomputes
// that matching canonically and returns the value. It starts either from an
// empty graph (thr = 0) or from the maximum matching and BFS labels a failed
// trial at thr has just left behind.
//
// Edges are inserted batch-by-batch in non-increasing value order, a batch
// being every queued cell of one value, in no particular order: the sweep
// reads only the batch boundaries, and the canonical matching never sees the
// order within one. Two sound gates keep the pass near-linear: no matching
// work happens before every left and right vertex has at least one inserted
// edge (a perfect matching is impossible earlier), and after a failed
// augmentation a new search runs only once a new edge touches a left vertex
// the last failed BFS could reach by an alternating path (an augmenting path
// must cross a new edge, and its prefix before that edge lies in the old
// graph). Edges whose endpoints are both free are adopted into the matching
// directly.
func (e *Engine) sweep() (int64, error) {
	n := e.n
	if e.support < n {
		return 0, fmt.Errorf("%w: support has %d entries for %d rows", ErrNoPerfectMatching, e.support, n)
	}
	g := &e.g
	e.covL, e.covR = grow64(e.covL, g.words), grow64(e.covR, g.words)
	uncovered := g.coverage(e.covL, e.covR)
	distValid := e.thr > 0
	searchWorthwhile := false // since the last search; set while still uncovered, it must survive the batch

	for {
		w, k := e.queue.pop()
		if k < 0 {
			break
		}
		for ; k >= 0; k = e.queue.next[k] {
			u, v := e.rowOf[k], e.colOf[k]
			g.addEdge32(u, v)
			if bit := uint64(1) << (u & 63); e.covL[u>>6]&bit == 0 {
				e.covL[u>>6] |= bit
				uncovered--
			}
			if bit := uint64(1) << (v & 63); e.covR[v>>6]&bit == 0 {
				e.covR[v>>6] |= bit
				uncovered--
			}
			if g.matchL[u] == -1 && g.matchR[v] == -1 {
				g.adopt(u, v)
				distValid = false
			} else if distValid && g.dist[u] != infDist {
				searchWorthwhile = true
			}
		}
		if uncovered > 0 {
			continue
		}
		if g.matched < n && (!distValid || searchWorthwhile) {
			g.augment()
			// A failed augment leaves the labels of its last BFS in g.dist.
			distValid, searchWorthwhile = true, false
		}
		if g.matched == n {
			g.clearMatching()
			if g.augment() != n {
				panic("matching: canonical rematch lost the perfect matching")
			}
			e.thr = w
			return w, nil
		}
	}
	// Every positive cell is in the graph now, which is what thr = 1 says.
	e.thr = 1
	return 0, fmt.Errorf("%w: support has no perfect matching", ErrNoPerfectMatching)
}

// locate records in pos where each row's matched cell sits in the index and
// returns the smallest matched value. The matching must be perfect.
func (e *Engine) locate() int64 {
	min := int64(-1)
	for u, v := range e.g.matchL[:e.n] {
		// A cell's place in its row is the number of cells left of it.
		row := e.cells[u*e.g.words:]
		lo := e.rowStart[u]
		for _, x := range row[:v>>6] {
			lo += int32(bits.OnesCount64(x))
		}
		lo += int32(bits.OnesCount64(row[v>>6] & (1<<(v&63) - 1)))
		e.pos[u] = lo
		if w := e.vals[lo]; min == -1 || w < min {
			min = w
		}
	}
	return min
}

// subtract takes coef off every cell locate found. The cells that fall
// below thr leave the graph, for the queue if anything is left of them.
func (e *Engine) subtract(coef int64) {
	for u, k := range e.pos[:e.n] {
		e.vals[k] -= coef
		if w := e.vals[k]; w < e.thr {
			v := e.g.matchL[u]
			e.g.removeEdge32(int32(u), v)
			if w == 0 {
				e.support--
			} else {
				e.queue.push(k)
			}
		}
	}
	e.remaining -= coef * int64(e.n)
}

// descQueue is a monotone radix heap turned upside down: a max-queue of cell
// indices k keyed by vals[k], for keys that never exceed the last value
// popped. Cell k sits in bucket bits.Len64(vals[k] ^ top), so bucket 0 is
// the cells of value top and a lower bucket holds larger values than a
// higher one. A pop that finds bucket 0 empty lowers top to the largest value
// in the lowest non-empty bucket and spreads that bucket over the buckets
// below it; the new top leaves every other cell in its bucket. Nothing is
// ever sorted, and a cell moves at most 63 times, each time to a lower
// bucket.
//
// The buckets are singly linked lists threaded through next, one slot per
// cell, so the queue's storage is sized by the support and reused with the
// engine. A queued cell's value must not change until it is popped.
type descQueue struct {
	vals []int64   // the engine's values, indexed by cell
	top  int64     // every queued value is at most top
	full uint64    // bit b is set while bucket b holds a cell
	head [64]int32 // the first cell of each non-empty bucket
	next []int32   // the cell after k in its bucket; -1 ends a bucket
}

// reset empties the queue for cells indexed into vals, none larger than top.
func (q *descQueue) reset(vals []int64, top int64) {
	q.vals, q.top, q.full = vals, top, 0
	q.next = grow32(q.next, len(vals))
}

// push queues cell k. Its value must be positive and at most the last value
// pop returned (at most reset's top before the first pop).
func (q *descQueue) push(k int32) {
	b := bits.Len64(uint64(q.vals[k] ^ q.top))
	if q.full&(1<<b) == 0 {
		q.next[k] = -1
	} else {
		q.next[k] = q.head[b]
	}
	q.head[b] = k
	q.full |= 1 << b
}

// pop removes every cell of the largest queued value and returns that value
// and the first of those cells; next links the rest, and -1 ends them. An
// empty queue returns k = -1. The links stay valid until the next push.
func (q *descQueue) pop() (w int64, k int32) {
	if q.full == 0 {
		return 0, -1
	}
	if q.full&1 == 0 {
		b := bits.TrailingZeros64(q.full)
		q.full &^= 1 << b
		k = q.head[b]
		top := q.vals[k]
		for c := q.next[k]; c >= 0; c = q.next[c] {
			top = max(top, q.vals[c])
		}
		q.top = top
		for k >= 0 {
			c := q.next[k]
			q.push(k)
			k = c
		}
	}
	q.full &^= 1
	return q.top, q.head[0]
}
