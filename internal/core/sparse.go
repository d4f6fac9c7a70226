package core

import (
	"context"
	"fmt"
	"slices"

	"reco/internal/bvn"
	"reco/internal/matching"
	"reco/internal/matrix"
	"reco/internal/obs"
	"reco/internal/ocs"
)

// DefaultSparseK is the term bound reco-sparse uses when the request leaves
// the k knob at zero. Eight terms cover the bulk of a stuffed matrix's mass
// (the residual shrinks geometrically in k), leaving only a thin tail for
// the full-drain cleanup phase.
const DefaultSparseK = 8

// RecoSparseCtx computes the sparsity-bounded single-coflow schedule: stuff
// the demand doubly stochastic, cap the Birkhoff–von Neumann decomposition
// at k max–min terms and cover the residual with full-drain cleanup
// establishments instead of the decomposition's long tail of small terms.
// k <= 0 selects DefaultSparseK.
//
// The term bound replaces Reco's δ-regularization as the sparsification
// mechanism: regularizing first would pay the rounding inflation in CCT and
// then throw the term-count benefit away by capping anyway, so the pipeline
// here is Solstice's (stuff + max–min BvN) with k as the only knob — k = nnz
// degrades to exactly the full unregularized decomposition, the baseline the
// frontier experiment sweeps against. delta is validated for interface
// symmetry with RecoSin; the schedule itself is δ-independent (the executor
// charges δ per establishment).
//
// Phase A emits the k extracted terms exactly as the full decomposition
// would (duration = coefficient). Phase B covers only the real demand the k terms leave
// uncovered — max(0, d − (stuffed − residual)) per pair, since a pair's
// Phase-A window time is the sum of the coefficients routing it — not the
// stuffed residual, whose stuffing slack never needs to be served.
// It repeatedly takes a maximum-cardinality matching of that support and
// holds it long enough to drain every matched pair completely, zeroing all
// matched entries per round; the all-stop executor's early-stop rule keeps
// the padding harmless for circuits that finish sooner. The schedule
// therefore completes any demand matrix, with at most k + cleanup rounds
// establishments — far fewer than the up-to-nnz terms of the full
// decomposition — at the cost of some idle padding inside the cleanup
// windows (the reconfig-vs-CCT frontier; results/frontier.csv).
//
// The extraction loop polls ctx and aborts with ctx.Err() once it is
// cancelled.
func RecoSparseCtx(ctx context.Context, d *matrix.Matrix, delta int64, k int) (ocs.CircuitSchedule, error) {
	if delta < 0 {
		return nil, fmt.Errorf("%w: delta %d", ErrBadParam, delta)
	}
	if k <= 0 {
		k = DefaultSparseK
	}
	if d.IsZero() {
		return nil, nil
	}
	if cs, ok := ocs.SinglePortSchedule(d); ok {
		return cs, nil
	}
	snk := obs.Current()
	end := snk.Stage("stuff")
	stuffed := matrix.StuffPreferNonZero(d)
	end()
	end = snk.Stage("bvn_decompose_k")
	terms, residual, err := bvn.DecomposeK(ctx, stuffed, k)
	end()
	if err != nil {
		return nil, fmt.Errorf("core: reco-sparse decomposition: %w", err)
	}
	// Rewrite the stuffed residual into the real demand still uncovered:
	// Phase A offers each pair Σ coefs = stuffed − residual ticks of window
	// time (the executor never shortens a window below a circuit's own
	// remaining demand), so max(0, d − (stuffed − residual)) per pair is all
	// the cleanup phase must serve. Stuffing only raises entries, so pairs
	// outside the residual support are already covered.
	residual.ForEachNonZero(func(i, j int, v int64) {
		need := d.At(i, j) - (stuffed.At(i, j) - v)
		if need < 0 {
			need = 0
		}
		residual.Set(i, j, need)
	})
	cs := appendDrainResidual(slices.Grow(terms, residual.MaxRowColNonZeros()), residual)
	snk.Inc("reco_sparse_schedules_total")
	return cs, nil
}

// appendDrainResidual appends full-drain cleanup establishments covering res
// to cs and returns the extended schedule, consuming res. Each round matches
// as many residual pairs as possible and lasts until the slowest matched
// pair drains, so every round zeroes all matched entries and the loop ends
// after at most nnz rounds (in practice about the residual's τ). The
// matching graph and support buffer are reused across rounds, so the loop
// allocates only the returned assignments.
func appendDrainResidual(cs ocs.CircuitSchedule, res *matrix.Matrix) ocs.CircuitSchedule {
	n := res.N()
	var g matching.Graph
	var cells []matrix.Cell
	for {
		cells = res.AppendNonZeros(cells[:0])
		if len(cells) == 0 {
			return cs
		}
		g.Reset(n)
		for _, c := range cells {
			g.AddEdge(c.I, c.J)
		}
		perm, size := g.MaxMatching()
		if size == 0 {
			// Unreachable: a non-empty support always admits a matching of
			// size one, so every round makes progress.
			panic("core: residual drain found no matching on a non-empty support")
		}
		var dur int64
		for i, j := range perm {
			if j == -1 {
				continue
			}
			if v := res.At(i, j); v > dur {
				dur = v
			}
			res.Set(i, j, 0)
		}
		cs = append(cs, ocs.Assignment{Perm: perm, Dur: dur})
	}
}
