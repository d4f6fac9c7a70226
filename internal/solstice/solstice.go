// Package solstice implements the Solstice circuit-scheduling algorithm of
// Liu et al. (CoNEXT 2015), the single-coflow baseline the paper evaluates
// Reco-Sin against: QuickStuff followed by threshold-halving Slicing.
package solstice

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"reco/internal/matching"
	"reco/internal/matrix"
	"reco/internal/ocs"
)

// ErrStuck reports that slicing failed to make progress, which would
// indicate a broken doubly stochastic invariant.
var ErrStuck = errors.New("solstice: slicing stuck")

// Schedule computes a Solstice circuit schedule for demand matrix d.
//
// QuickStuff makes the matrix doubly stochastic, preferring to add demand to
// entries that are already non-zero so the support stays small. Slicing then
// repeatedly halves a duration threshold r (starting from the largest power
// of two not exceeding the maximum entry) and, whenever a perfect matching
// exists among entries of value at least r, emits that matching as a circuit
// assignment of duration r and subtracts it. Integer demands guarantee
// termination: at r = 1 a doubly stochastic residual always has a perfect
// matching on its support (Birkhoff's theorem). Slicing checks ctx once per
// slice and returns ctx.Err() once it is cancelled.
func Schedule(ctx context.Context, d *matrix.Matrix) (ocs.CircuitSchedule, error) {
	if d.IsZero() {
		return nil, nil
	}
	// Single-port coflows are served one flow at a time — optimal for them
	// (Sec. V-A of the Reco paper), and what a deployed Solstice does rather
	// than stuffing an almost-empty matrix full of junk demand.
	if cs, ok := ocs.SinglePortSchedule(d); ok {
		return cs, nil
	}
	res := matrix.AcquireClone(d)
	defer res.Recycle()
	matrix.StuffPreferNonZeroInPlace(res)
	n := res.N()

	r := int64(1)
	for r*2 <= res.MaxEntry() {
		r *= 2
	}

	// One graph holds the residual's cells of value at least r for the
	// whole run. A slice changes only the n cells it matched, so it drops
	// the ones that fell below r, and a halving loads the support at the
	// new r; neither rescans the matrix per slice. The matching is rerun,
	// from empty, only when an edge left the graph or r changed: on the
	// same edge set it would return the same permutation, so otherwise
	// the previous slice's is emitted again. Tracking the residual total
	// makes termination O(1) per slice.
	g := matching.NewGraph(n)
	g.LoadThreshold(res, r)
	left := res.Total()
	var cs ocs.CircuitSchedule
	var perm []int // the graph's perfect matching; nil once it must be recomputed
	for left > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if perm == nil {
			var size int
			if perm, size = g.MaxMatching(); size != n {
				if r == 1 {
					return nil, fmt.Errorf("%w: no perfect matching at r=1", ErrStuck)
				}
				r /= 2
				g.LoadThreshold(res, r)
				perm = nil
				continue
			}
		} else {
			perm = slices.Clone(perm)
		}
		cs = append(cs, ocs.Assignment{Perm: perm, Dur: r})
		for i, j := range perm {
			res.Add(i, j, -r)
			if v := res.At(i, j); v < r {
				if v < 0 {
					return nil, fmt.Errorf("%w: negative residual after slice", ErrStuck)
				}
				g.RemoveEdge(i, j)
				perm = nil
			}
		}
		left -= r * int64(n)
	}
	return cs, nil
}
