// Package tms implements the coflow-agnostic circuit-scheduling baselines
// from the paper's related work (Table IV): Traffic Matrix Scheduling
// (Porter et al., SIGCOMM 2013), which serves a demand matrix with a
// primitive Birkhoff–von Neumann decomposition, and the Helios/c-Through
// style slotted scheduler (Farrington et al., SIGCOMM 2010) that
// repeatedly establishes an Edmonds maximum-weight matching over the
// remaining demand for a fixed slot.
package tms

import (
	"context"
	"errors"
	"fmt"

	"reco/internal/bvn"
	"reco/internal/matching"
	"reco/internal/matrix"
	"reco/internal/ocs"
)

// ErrBadSlot reports a non-positive Helios slot length.
var ErrBadSlot = errors.New("tms: slot must be positive")

// ScheduleBvN returns the TMS circuit schedule for d: stuffing followed by a
// first-fit Birkhoff–von Neumann decomposition, every permutation held for
// its coefficient. This is the decomposition whose Ω(N) worst case Theorem 1
// exhibits, and the one primitive BvN schedule: LP-II-GB (internal/lpiigb)
// builds its per-coflow and per-group schedules here. The decomposition
// checks ctx before every term and, once ctx is cancelled, returns an error
// wrapping ctx.Err().
func ScheduleBvN(ctx context.Context, d *matrix.Matrix) (ocs.CircuitSchedule, error) {
	if d.IsZero() {
		return nil, nil
	}
	terms, err := bvn.DecomposeCtx(ctx, matrix.Stuff(d), bvn.FirstFit)
	if err != nil {
		return nil, fmt.Errorf("tms: %w", err)
	}
	return terms, nil
}

// ScheduleHelios returns the Helios-style slotted circuit schedule for d:
// in each slot, establish the maximum-weight matching of the remaining
// demand (Edmonds/Hungarian) and hold it for the slot length. Slots repeat
// until the demand drains; circuits whose pair drains mid-slot simply idle,
// exactly as the all-stop executor models. There are at least ⌈ρ/slot⌉
// slots however small the matrix, so ctx is checked once per slot.
func ScheduleHelios(ctx context.Context, d *matrix.Matrix, slot int64) (ocs.CircuitSchedule, error) {
	if slot <= 0 {
		return nil, fmt.Errorf("%w: %d", ErrBadSlot, slot)
	}
	rem := d.Clone()
	var cs ocs.CircuitSchedule
	n := d.N()
	for !rem.IsZero() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		perm, weight := matching.MaxWeightPerfect(rem)
		if weight == 0 {
			// Cannot happen: a non-zero matrix always has a positive-weight
			// matching. Guard against an infinite loop regardless.
			return nil, fmt.Errorf("tms: helios made no progress")
		}
		// Drop zero-demand circuits from the establishment: they would only
		// block their ports.
		held := make([]int, n)
		for i := range held {
			held[i] = -1
		}
		for i, j := range perm {
			if rem.At(i, j) > 0 {
				held[i] = j
			}
		}
		for i, j := range held {
			if j == -1 {
				continue
			}
			send := slot
			if r := rem.At(i, j); r < send {
				send = r
			}
			rem.Add(i, j, -send)
		}
		cs = append(cs, ocs.Assignment{Perm: held, Dur: slot})
	}
	return cs, nil
}
