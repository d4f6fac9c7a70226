package bvn

import (
	"context"
	"fmt"
	"time"

	"reco/internal/matching"
	"reco/internal/matrix"
	"reco/internal/obs"
)

// Bucket bounds for the decomposition metrics. Terms per matrix are bounded
// by nnz ≤ n², residual ticks by the matrix total, and a decomposition runs
// anywhere from microseconds (small fabrics) to seconds (n in the hundreds),
// so all three series use log-scale bounds (docs/PERF.md).
var (
	termBuckets     = obs.LogBuckets(1, 2, 11)    // 1 .. 1024 terms
	residualBuckets = obs.LogBuckets(1e2, 4, 12)  // 1e2 .. ~1.7e9 ticks
	latencyBuckets  = obs.LogBuckets(1e-6, 4, 12) // 1µs .. ~16s
)

// DecomposeK extracts at most k max–min Birkhoff–von Neumann terms from m
// and returns them together with the residual demand they leave uncovered
// (zero when k reaches the full decomposition's term count). The input must
// be doubly stochastic, like DecomposeCtx's, and is not modified.
//
// This is the greedy coverage loop of the sparsity-bounded decompositions
// in "Birkhoff's Decomposition Revisited": each step removes the term with
// the largest possible coefficient — exactly the max–min extraction — so
// after k steps the residual total is at most Total·(1−1/nnz)^k, where nnz
// counts m's positive entries (each max–min coefficient is at least the
// common row sum divided by nnz, by Hall's theorem over the large entries).
// The k extractions run on one warm-started matching.Engine: the support is
// scanned and sorted once, and each step repairs it incrementally with
// pooled scratch, so stopping at k « nnz skips the long tail of small terms
// that dominates a full decomposition's cost.
func DecomposeK(ctx context.Context, m *matrix.Matrix, k int) ([]Term, *matrix.Matrix, error) {
	if k < 1 {
		return nil, nil, fmt.Errorf("bvn: term bound k must be at least 1, got %d", k)
	}
	if _, ok := m.DoublyStochasticValue(); !ok {
		return nil, nil, ErrNotDoublyStochastic
	}
	start := time.Now()
	eng := matching.AcquireEngine(m, matching.Descending)
	defer eng.Release()
	for t := 0; t < k && eng.Remaining() > 0; t++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if err := eng.Step(); err != nil {
			return nil, nil, fmt.Errorf("bvn: extraction failed: %w", err)
		}
	}
	terms := logged(eng)
	residual, err := matrix.New(m.N())
	if err != nil {
		return nil, nil, err
	}
	eng.ForEachEntry(func(i, j int, w int64) { residual.Set(i, j, w) })
	snk := obs.Current()
	snk.Inc("bvn_sparse_decompositions_total")
	countTrials(snk, eng)
	snk.ObserveBuckets("bvn_sparse_terms_per_matrix", termBuckets, float64(len(terms)))
	snk.ObserveBuckets("bvn_sparse_residual_ticks", residualBuckets, float64(eng.Remaining()))
	snk.ObserveBuckets("bvn_sparse_decompose_seconds", latencyBuckets, time.Since(start).Seconds())
	return terms, residual, nil
}
