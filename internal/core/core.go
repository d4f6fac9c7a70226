// Package core implements the paper's contribution: the regularization
// operation on traffic demands (Sec. III-B) and on flow start times
// (Sec. IV-A), the 2-approximate single-coflow scheduler Reco-Sin
// (Algorithm 1), and the multi-coflow transformation Reco-Mul (Algorithm 2)
// that turns any non-preemptive packet-switch schedule into a feasible
// all-stop OCS schedule while provably bounding the reconfiguration cost.
package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"

	"reco/internal/bvn"
	"reco/internal/matrix"
	"reco/internal/obs"
	"reco/internal/ocs"
	"reco/internal/schedule"
)

// ErrBadParam reports an invalid reconfiguration delay or transmission
// threshold.
var ErrBadParam = errors.New("core: invalid parameter")

// Regularize rounds every entry of d up to the next integral multiple of the
// reconfiguration delay delta (Sec. III-B). Because entries only grow, any
// circuit schedule satisfying the regularized matrix satisfies d; because
// every entry, and hence every Birkhoff coefficient, becomes a multiple of
// delta, each circuit establishment lasts at least delta, which caps total
// reconfiguration time by total transmission time (Lemma 1).
//
// Regularize with delta <= 0 returns a plain clone, so callers can treat
// "no reconfiguration cost" uniformly.
func Regularize(d *matrix.Matrix, delta int64) *matrix.Matrix {
	out := d.Clone()
	if delta <= 0 {
		return out
	}
	d.ForEachNonZero(func(i, j int, v int64) {
		if rem := v % delta; rem != 0 {
			out.Set(i, j, v+delta-rem)
		}
	})
	return out
}

// RecoSin computes the Reco-Sin circuit schedule for a single coflow
// (Algorithm 1): regularize the demand, stuff it doubly stochastic while
// preserving the multiple-of-delta structure, and decompose it with max–min
// Birkhoff–von Neumann extraction. Each permutation becomes a circuit
// establishment whose duration is the coefficient; the all-stop executor's
// early-stop rule then charges only the true demand per circuit.
//
// The resulting schedule completes d with CCT at most 2·(ρ + τ·δ) under
// ocs.ExecAllStop — Theorem 2, enforced by this package's tests.
func RecoSin(d *matrix.Matrix, delta int64) (ocs.CircuitSchedule, error) {
	return RecoSinCtx(context.Background(), d, delta)
}

// RecoSinCtx is RecoSin with cooperative cancellation: the BvN extraction
// loop polls ctx and aborts with ctx.Err() once it is cancelled.
func RecoSinCtx(ctx context.Context, d *matrix.Matrix, delta int64) (ocs.CircuitSchedule, error) {
	if delta < 0 {
		return nil, fmt.Errorf("%w: delta %d", ErrBadParam, delta)
	}
	if d.IsZero() {
		return nil, nil
	}
	// Single-port coflows (S2S/S2M/M2S) admit no parallelism; serving their
	// flows back-to-back is exactly optimal (Sec. V-A), and stuffing them
	// would only add junk circuits.
	if cs, ok := ocs.SinglePortSchedule(d); ok {
		return cs, nil
	}
	snk := obs.Current()
	end := snk.Stage("regularize")
	reg := Regularize(d, delta)
	end()
	// Row and column sums of reg are multiples of delta, so its rho already
	// lies on the grid and stuffing deficits stay multiples of delta.
	end = snk.Stage("stuff")
	stuffed := matrix.StuffPreferNonZero(reg)
	end()
	end = snk.Stage("bvn_decompose")
	terms, err := bvn.DecomposeCtx(ctx, stuffed, bvn.MaxMin)
	end()
	if err != nil {
		return nil, fmt.Errorf("core: reco-sin decomposition: %w", err)
	}
	snk.Inc("reco_sin_schedules_total")
	cs := make(ocs.CircuitSchedule, len(terms))
	for i, t := range terms {
		cs[i] = ocs.Assignment{Perm: t.Perm, Dur: t.Coef}
	}
	return cs, nil
}

// MulResult is a Reco-Mul schedule together with its reconfiguration
// accounting.
type MulResult struct {
	// Flows is the feasible all-stop OCS schedule S_o in real time; each
	// interval's Gap records the time it spent frozen by reconfigurations of
	// other circuits.
	Flows schedule.FlowSchedule
	// Reconfigs is the number of all-stop reconfigurations, one per distinct
	// regularized start instant.
	Reconfigs int
	// ConfTime is Reconfigs·delta.
	ConfTime int64
}

// RecoMul transforms a non-preemptive packet-switch schedule sp (produced by
// any ALG_p, e.g. packet.ListSchedule under an ordering.PrimalDual
// permutation) into a feasible all-stop OCS schedule, following Algorithm 2.
//
// With s = ⌊√c⌋, every start time is first stretched by (s+1)/s and snapped
// down to the grid of s·delta, so that conflict-free flows share
// reconfigurations; the reconfiguration delays are then injected back on the
// real time axis: a flow starting at regularized instant t̂ waits for every
// reconfiguration at or before t̂ and is frozen by every reconfiguration that
// fires strictly before it completes.
//
// When the paper's minimum-demand assumption (every flow ≥ c·delta) holds,
// the stretch alone guarantees feasibility (Lemma 2). Inputs that violate
// the assumption are still scheduled correctly: a conflict-resolution pass
// pushes any colliding flow to the instant its ports free up (back-to-back
// with its predecessor), preserving per-port order.
//
// delta must be non-negative and c at least 1. With delta == 0 the input is
// returned unchanged (reconfigurations are free).
func RecoMul(sp schedule.FlowSchedule, n int, delta, c int64) (*MulResult, error) {
	if delta < 0 {
		return nil, fmt.Errorf("%w: delta %d", ErrBadParam, delta)
	}
	if c < 1 {
		return nil, fmt.Errorf("%w: c %d", ErrBadParam, c)
	}
	if n <= 0 {
		return nil, fmt.Errorf("%w: n %d", ErrBadParam, n)
	}
	if delta == 0 || len(sp) == 0 {
		out := make(schedule.FlowSchedule, len(sp))
		copy(out, sp)
		return &MulResult{Flows: out}, nil
	}
	s := isqrt(c)
	grid := s * delta

	// Lines 5–9 of Algorithm 2: stretch and snap start times onto the
	// pseudo-time axis (reconfiguration delay shrunk to zero).
	flows := make([]pseudoFlow, len(sp))
	for idx, f := range sp {
		if f.Gap != 0 {
			return nil, fmt.Errorf("%w: input interval %d is not a packet-switch interval (gap %d)", ErrBadParam, idx, f.Gap)
		}
		stretched := f.Start * (s + 1) / s
		snapped := stretched / grid * grid
		flows[idx] = pseudoFlow{start: snapped, end: snapped + f.Duration(), orig: f}
	}

	// Conflict resolution: process flows in nondecreasing candidate start
	// order; a flow whose regularized start would collide on a port is
	// pushed to the instant the port frees up. The pushed flow starts
	// back-to-back with its predecessor (continuing the circuit where the
	// pair is unchanged) rather than waiting for the next grid instant:
	// when the c·delta assumption is violated, compact placement wastes at
	// most one reconfiguration where grid alignment would idle the port for
	// up to s·delta. Under the minimum-demand assumption this pass is a
	// no-op (Lemma 2).
	sortPseudo(flows)
	freeIn := make([]int64, n)
	freeOut := make([]int64, n)
	for idx := range flows {
		f := &flows[idx]
		of := f.orig
		if of.In >= n || of.Out >= n {
			return nil, fmt.Errorf("%w: interval uses ports (%d,%d) outside fabric of %d", ErrBadParam, of.In, of.Out, n)
		}
		st := f.start
		if freeIn[of.In] > st {
			st = freeIn[of.In]
		}
		if freeOut[of.Out] > st {
			st = freeOut[of.Out]
		}
		f.start = st
		f.end = st + of.Duration()
		freeIn[of.In] = f.end
		freeOut[of.Out] = f.end
	}
	// Conflict resolution only pushes flows later, so flows that share no
	// ports may now be out of order; restore the sort that the
	// reconfiguration accounting below relies on.
	sortPseudo(flows)

	// Lines 10–12: inject reconfiguration delays. Reconfigurations fire at
	// the pseudo start instants that establish at least one new circuit: an
	// instant where every starting flow continues a circuit whose previous
	// flow ended exactly there changes nothing in the switch and is free. A
	// flow waits for every reconfiguration at or before its start (the
	// all-stop freeze applies even to continuing circuits) and is frozen by
	// every later one that fires strictly before its pseudo end.
	instants := reconfigInstants(flows)
	res := &MulResult{
		Flows:     make(schedule.FlowSchedule, len(flows)),
		Reconfigs: len(instants),
		ConfTime:  int64(len(instants)) * delta,
	}
	for idx, f := range flows {
		startShift := int64(countLE(instants, f.start)) * delta
		endShift := int64(countLT(instants, f.end)) * delta
		out := f.orig
		out.Start = f.start + startShift
		out.End = f.end + endShift
		out.Gap = endShift - startShift
		res.Flows[idx] = out
	}
	return res, nil
}

// ApproxRatioMul returns the paper's Reco-Mul approximation ratio
// Δ·(1 + 1/⌊√c⌋)² for a packet-switch algorithm with ratio delta4
// (Theorem 3; Table III's f(c) with Δ = delta4).
func ApproxRatioMul(delta4 float64, c int64) float64 {
	s := float64(isqrt(c))
	r := 1 + 1/s
	return delta4 * r * r
}

// pseudoFlow is a flow interval on the pseudo-time axis of Algorithm 2.
type pseudoFlow struct {
	start, end int64
	orig       schedule.FlowInterval
}

func sortPseudo(fs []pseudoFlow) {
	slices.SortFunc(fs, func(a, b pseudoFlow) int {
		if a.start != b.start {
			return cmp.Compare(a.start, b.start)
		}
		if a.orig.Start != b.orig.Start {
			return cmp.Compare(a.orig.Start, b.orig.Start)
		}
		if a.orig.In != b.orig.In {
			return a.orig.In - b.orig.In
		}
		return a.orig.Out - b.orig.Out
	})
}

// reconfigInstants returns the sorted pseudo-time instants at which the
// all-stop switch must reconfigure: the distinct start times at which some
// starting flow's (ingress, egress) pair was not connected right up to that
// instant. fs must be sorted by start (sortPseudo order).
func reconfigInstants(fs []pseudoFlow) []int64 {
	lastEnd := make(map[[2]int]int64, len(fs))
	var instants []int64
	for i := 0; i < len(fs); {
		t := fs[i].start
		j := i
		needs := false
		for ; j < len(fs) && fs[j].start == t; j++ {
			key := [2]int{fs[j].orig.In, fs[j].orig.Out}
			if last, ok := lastEnd[key]; !ok || last != t {
				needs = true
			}
		}
		for k := i; k < j; k++ {
			key := [2]int{fs[k].orig.In, fs[k].orig.Out}
			if fs[k].end > lastEnd[key] {
				lastEnd[key] = fs[k].end
			}
		}
		if needs {
			instants = append(instants, t)
		}
		i = j
	}
	return instants
}

// countLE returns how many sorted instants are <= t.
func countLE(instants []int64, t int64) int {
	lo, hi := 0, len(instants)
	for lo < hi {
		mid := (lo + hi) / 2
		if instants[mid] <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// countLT returns how many sorted instants are < t.
func countLT(instants []int64, t int64) int {
	return countLE(instants, t-1)
}

// isqrt returns ⌊√c⌋ for c ≥ 0.
func isqrt(c int64) int64 {
	if c < 0 {
		return 0
	}
	var r int64
	for (r+1)*(r+1) <= c {
		r++
	}
	return r
}
