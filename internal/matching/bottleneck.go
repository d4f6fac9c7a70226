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

// enginePool recycles the scratch-heavy Engine behind the package-level
// convenience entry point, so even callers that cannot hold an Engine of
// their own run allocation-light in steady state.
var enginePool = sync.Pool{New: func() any { return new(Engine) }}

// BottleneckPerfect finds the perfect matching of m's positive support whose
// minimum entry is maximized — the "max–min matching" the paper uses to
// extract Birkhoff–von Neumann terms efficiently (Sec. III-C, following
// Solstice [7]). It returns the matching and its bottleneck value, computed
// by the Engine's single threshold-descending pass over the sorted support.
//
// The input must admit a perfect matching on its positive support (any
// doubly stochastic matrix does, by Birkhoff's theorem); otherwise
// ErrNoPerfectMatching is returned.
func BottleneckPerfect(m *matrix.Matrix) ([]int, int64, error) {
	obs.Current().Inc("matching_bottleneck_total")
	e := enginePool.Get().(*Engine)
	defer enginePool.Put(e)
	e.Reset(m, Descending)
	return e.Bottleneck()
}
