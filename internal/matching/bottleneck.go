package matching

import (
	"errors"
	"sync"

	"reco/internal/matrix"
	"reco/internal/obs"
)

// ErrNoPerfectMatching reports that the requested perfect matching does not
// exist in the given support graph.
var ErrNoPerfectMatching = errors.New("matching: no perfect matching")

// enginePool recycles the scratch-heavy Engine across callers that need one
// for the length of a call — BottleneckPerfect here, the decompositions in
// package bvn — so they run allocation-light in steady state. A pooled
// engine keeps the storage of the largest matrix it has served until a
// garbage collection empties the pool.
var enginePool = sync.Pool{New: func() any { return new(Engine) }}

// AcquireEngine is NewEngine on a pooled Engine. Release it when done.
func AcquireEngine(m *matrix.Matrix, order Order) *Engine {
	e := enginePool.Get().(*Engine)
	e.Reset(m, order)
	return e
}

// Release returns an engine from AcquireEngine to the pool. The engine must
// not be used afterwards; the permutations it returned stay valid.
func (e *Engine) Release() { enginePool.Put(e) }

// BottleneckPerfect finds the perfect matching of m's positive support whose
// minimum entry is maximized — the "max–min matching" the paper uses to
// extract Birkhoff–von Neumann terms efficiently (Sec. III-C, following
// Solstice [7]). It returns the matching and its bottleneck value, computed
// by the Engine's single threshold-descending pass over the support, which
// its radix queue hands out one value at a time, largest first.
//
// The input must admit a perfect matching on its positive support (any
// doubly stochastic matrix does, by Birkhoff's theorem); otherwise
// ErrNoPerfectMatching is returned.
func BottleneckPerfect(m *matrix.Matrix) ([]int, int64, error) {
	obs.Current().Inc("matching_bottleneck_total")
	e := AcquireEngine(m, Descending)
	defer e.Release()
	return e.Bottleneck()
}
