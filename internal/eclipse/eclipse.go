// Package eclipse implements an Eclipse-style circuit scheduler
// (Bojja Venkatakrishnan et al., "Costly circuits, submodular schedules and
// approximate Carathéodory theorems", SIGMETRICS 2016): a greedy
// throughput-per-cost rule for switches with reconfiguration delay. Each
// step considers a menu of candidate durations, finds the maximum-weight
// matching of the demand clipped to each duration, and establishes the
// (matching, duration) pair maximizing demand served per unit of wall-clock
// time including the δ setup.
//
// It complements the repository's other single-coflow baselines: Solstice
// and TMS come from the Birkhoff decomposition family, Eclipse from the
// submodular-cover family, and Reco-Sin is evaluated against all of them in
// the ext-single experiment.
package eclipse

import (
	"context"
	"fmt"

	"reco/internal/matching"
	"reco/internal/matrix"
	"reco/internal/ocs"
)

// Schedule computes the Eclipse-style circuit schedule for demand d with
// reconfiguration delay delta. Candidate durations are the geometric menu
// {delta, 2delta, 4delta, ...} up to the largest remaining entry, which is
// the standard discretization of the algorithm's continuous duration choice.
// It checks ctx once per candidate duration, each an O(n³) matching, and
// returns ctx.Err() once cancelled.
func Schedule(ctx context.Context, d *matrix.Matrix, delta int64) (ocs.CircuitSchedule, error) {
	if delta <= 0 {
		return nil, fmt.Errorf("eclipse: delta must be positive, got %d", delta)
	}
	n := d.N()
	rem := d.Clone()
	var cs ocs.CircuitSchedule
	clipped, err := matrix.New(n)
	if err != nil {
		return nil, err
	}
	for !rem.IsZero() {
		bestRate := -1.0
		var bestPerm []int
		var bestDur int64
		for dur := delta; ; dur *= 2 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			// Clip demand to the candidate duration: a circuit can serve at
			// most dur of its pair within the establishment.
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					v := rem.At(i, j)
					if v > dur {
						v = dur
					}
					clipped.Set(i, j, v)
				}
			}
			perm, served := matching.MaxWeightPerfect(clipped)
			if served > 0 {
				rate := float64(served) / float64(dur+delta)
				if rate > bestRate {
					bestRate = rate
					bestDur = dur
					bestPerm = append(bestPerm[:0], perm...)
				}
			}
			if dur >= rem.MaxEntry() {
				break
			}
		}
		if bestRate <= 0 {
			return nil, fmt.Errorf("eclipse: no progress with %d ticks remaining", rem.Total())
		}
		held := make([]int, n)
		for i := range held {
			held[i] = -1
		}
		for i, j := range bestPerm {
			r := rem.At(i, j)
			if r == 0 {
				continue
			}
			held[i] = j
			send := bestDur
			if r < send {
				send = r
			}
			rem.Add(i, j, -send)
		}
		cs = append(cs, ocs.Assignment{Perm: held, Dur: bestDur})
	}
	return cs, nil
}
