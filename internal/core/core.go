// Package core implements the paper's contribution: the regularization
// operation on traffic demands (Sec. III-B) and on flow start times
// (Sec. IV-A), the 2-approximate single-coflow scheduler Reco-Sin
// (Algorithm 1), and the multi-coflow transformation Reco-Mul (Algorithm 2)
// that turns any non-preemptive packet-switch schedule into a feasible
// all-stop OCS schedule while provably bounding the reconfiguration cost.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"reco/internal/bvn"
	"reco/internal/matrix"
	"reco/internal/obs"
	"reco/internal/ocs"
	"reco/internal/radix"
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
	roundUp(out, delta)
	return out
}

// roundUp is Regularize in place on m; delta <= 0 leaves m as it is.
func roundUp(m *matrix.Matrix, delta int64) {
	if delta <= 0 {
		return
	}
	m.ForEachNonZero(func(i, j int, v int64) {
		if rem := v % delta; rem != 0 {
			m.Set(i, j, v+delta-rem)
		}
	})
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
	reg := matrix.AcquireClone(d)
	roundUp(reg, delta)
	end()
	// Row and column sums of reg are multiples of delta, so its rho already
	// lies on the grid and stuffing deficits stay multiples of delta. reg is
	// this call's own pooled copy: it is stuffed in place, and goes back to
	// the pool once decomposed, since DecomposeCtx keeps nothing of its
	// input.
	end = snk.Stage("stuff")
	matrix.StuffPreferNonZeroInPlace(reg)
	end()
	end = snk.Stage("bvn_decompose")
	terms, err := bvn.DecomposeCtx(ctx, reg, bvn.MaxMin)
	end()
	reg.Recycle()
	if err != nil {
		return nil, fmt.Errorf("core: reco-sin decomposition: %w", err)
	}
	snk.Inc("reco_sin_schedules_total")
	return terms, nil
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
// delta must be non-negative, c at least 1 and the grid ⌊√c⌋·delta
// representable, and every interval of sp must be a packet-switch interval
// (no gap, ports in [0, n), End ≥ Start); otherwise RecoMul returns
// ErrBadParam. With delta == 0 the input is returned unchanged
// (reconfigurations are free).
func RecoMul(sp schedule.FlowSchedule, n int, delta, c int64) (*MulResult, error) {
	s := getMulScratch()
	defer mulPool.Put(s)
	return s.recoMul(sp, n, delta, c)
}

// recoMul is RecoMul in s's storage.
func (s *mulScratch) recoMul(sp schedule.FlowSchedule, n int, delta, c int64) (*MulResult, error) {
	fs, res, err := s.placeOnGrid(sp, n, delta, c)
	if res != nil || err != nil {
		return res, err
	}
	return s.inject(sp, fs, n, delta), nil
}

// mulScratch is the storage one Reco-Mul transformation works in and then
// drops: the pipeline's packet schedule S_p, the pseudo-flows, the per-port
// clocks and the reconfiguration instants. It is pooled, so that once the
// pool is warm none of it is allocated per request.
type mulScratch struct {
	sp       schedule.FlowSchedule
	fs       []pseudoFlow
	clocks   []int64
	lastOut  []int
	instants []int64
}

// mulPool recycles mulScratch across calls.
var mulPool sync.Pool

func getMulScratch() *mulScratch {
	s, _ := mulPool.Get().(*mulScratch)
	if s == nil {
		s = new(mulScratch)
	}
	return s
}

// placeOnGrid is the front end RecoMul and RecoMulNAS share: it validates
// delta, c and n, and places sp's flows on the stretched-and-snapped
// pseudo-time axis of Algorithm 2 in s's storage. When there is nothing to
// transform (delta == 0 or an empty sp) it returns a copy of sp as the
// finished result instead.
func (s *mulScratch) placeOnGrid(sp schedule.FlowSchedule, n int, delta, c int64) ([]pseudoFlow, *MulResult, error) {
	if delta < 0 {
		return nil, nil, fmt.Errorf("%w: delta %d", ErrBadParam, delta)
	}
	if c < 1 {
		return nil, nil, fmt.Errorf("%w: c %d", ErrBadParam, c)
	}
	if n <= 0 {
		return nil, nil, fmt.Errorf("%w: n %d", ErrBadParam, n)
	}
	if delta == 0 || len(sp) == 0 {
		out := make(schedule.FlowSchedule, len(sp))
		copy(out, sp)
		return nil, &MulResult{Flows: out}, nil
	}
	snap, err := gridSnap(delta, c)
	if err != nil {
		return nil, nil, err
	}
	fs, _, err := s.place(sp, n, snap)
	return fs, nil, err
}

// ApproxRatioMul returns the paper's Reco-Mul approximation ratio
// Δ·(1 + 1/⌊√c⌋)² for a packet-switch algorithm with ratio delta4
// (Theorem 3; Table III's f(c) with Δ = delta4).
func ApproxRatioMul(delta4 float64, c int64) float64 {
	s := float64(isqrt(c))
	r := 1 + 1/s
	return delta4 * r * r
}

// gridSnap returns lines 5–9 of Algorithm 2 as a map on start times: with
// s = ⌊√c⌋, stretch a start by (s+1)/s and snap it down to the grid of
// s·delta. The stretch is computed as t + t/s, which equals ⌊t·(s+1)/s⌋
// without forming the product. c ≥ 1 and delta > 0.
func gridSnap(delta, c int64) (func(t int64) int64, error) {
	s := isqrt(c)
	if delta > math.MaxInt64/s {
		return nil, fmt.Errorf("%w: grid ⌊√c⌋·delta = %d·%d overflows int64", ErrBadParam, s, delta)
	}
	grid := s * delta
	return func(t int64) int64 { return (t + t/s) / grid * grid }, nil
}

// pseudoFlow is flow sp[idx] of an input schedule on the pseudo-time axis
// of Algorithm 2, where it starts at start.
type pseudoFlow struct {
	start   int64
	in, out int
	idx     int
}

// place checks that sp is a packet-switch schedule on n ports and puts its
// flows on the pseudo-time axis in start order: every start is mapped
// through snap, then, in that order, a flow whose start would collide on a
// port is pushed to the instant the port frees up. pushed reports whether
// any flow moved.
//
// A pushed flow starts back-to-back with its predecessor (continuing the
// circuit where the pair is unchanged) rather than waiting for the next
// grid instant: when the c·delta assumption is violated, compact placement
// wastes at most one reconfiguration where grid alignment would idle the
// port for up to s·delta. Under the minimum-demand assumption nothing is
// pushed (Lemma 2).
//
// fs is s's storage, valid until s is used again.
func (s *mulScratch) place(sp schedule.FlowSchedule, n int, snap func(int64) int64) (fs []pseudoFlow, pushed bool, err error) {
	s.fs = slices.Grow(s.fs[:0], len(sp))[:len(sp)]
	fs = s.fs
	for idx, f := range sp {
		if f.Gap != 0 {
			return nil, false, fmt.Errorf("%w: input interval %d is not a packet-switch interval (gap %d)", ErrBadParam, idx, f.Gap)
		}
		if f.In < 0 || f.In >= n || f.Out < 0 || f.Out >= n {
			return nil, false, fmt.Errorf("%w: interval uses ports (%d,%d) outside fabric of %d", ErrBadParam, f.In, f.Out, n)
		}
		if f.End < f.Start {
			return nil, false, fmt.Errorf("%w: input interval %d ends at %d before it starts at %d", ErrBadParam, idx, f.End, f.Start)
		}
		fs[idx] = pseudoFlow{start: f.Start, in: f.In, out: f.Out, idx: idx}
	}
	// snap is monotone, so ordering by packet start orders by snapped start,
	// ties broken by ports and then by index: the order in which conflicts
	// are resolved and reconfigurations accounted. fs is in index order, so
	// a stable pass on the port pair and then one on start give exactly
	// (start, in, out, idx).
	radix.Sort(fs, func(f pseudoFlow) uint64 { return uint64(f.in*n + f.out) })
	radix.Sort(fs, startKey)
	s.clocks = slices.Grow(s.clocks[:0], 2*n)[:2*n]
	clear(s.clocks)
	freeIn, freeOut := s.clocks[:n], s.clocks[n:]
	for k := range fs {
		f := &fs[k]
		snapped := snap(f.start)
		f.start = max(snapped, freeIn[f.in], freeOut[f.out])
		pushed = pushed || f.start != snapped
		end := f.start + sp[f.idx].Duration()
		freeIn[f.in] = end
		freeOut[f.out] = end
	}
	// A push moves a flow later, past flows that share no port with it;
	// restore start order. The pass is stable, so the tie-break above
	// survives.
	if pushed {
		radix.Sort(fs, startKey)
	}
	return fs, pushed, nil
}

// startKey orders pseudo-flows by start, negative starts first.
func startKey(f pseudoFlow) uint64 { return radix.Signed(f.start) }

// inject is lines 10–12 of Algorithm 2: it puts the all-stop
// reconfiguration delays back on the real time axis for the flows of sp
// placed at fs, which is in start order with no two flows overlapping on a
// port.
//
// Reconfigurations fire at the pseudo start instants that establish at
// least one new circuit: an instant where every starting flow continues a
// circuit whose previous flow ended exactly there changes nothing in the
// switch and is free. A flow waits for every reconfiguration at or before
// its start (the all-stop freeze applies even to continuing circuits) and
// is frozen by every later one that fires strictly before its pseudo end.
func (s *mulScratch) inject(sp schedule.FlowSchedule, fs []pseudoFlow, n int, delta int64) *MulResult {
	// A flow on (i, j) starting at t continues a circuit when the latest
	// flow on ingress i went to j and ended at t. The latest flow on the
	// ingress speaks for every earlier flow on the pair because flows on one
	// port are disjoint: an earlier (i, j) flow ending at t leaves no room
	// for another flow on ingress i to start before t.
	s.lastOut = slices.Grow(s.lastOut[:0], n)[:n]
	s.clocks = slices.Grow(s.clocks[:0], n)[:n]
	lastOut, lastEnd := s.lastOut, s.clocks
	for i := range lastOut {
		lastOut[i] = -1
	}
	clear(lastEnd)
	instants := s.instants[:0]
	for a := 0; a < len(fs); {
		t := fs[a].start
		b := a
		fresh := false
		for ; b < len(fs) && fs[b].start == t; b++ {
			fresh = fresh || lastOut[fs[b].in] != fs[b].out || lastEnd[fs[b].in] != t
		}
		for _, f := range fs[a:b] {
			if end := t + sp[f.idx].Duration(); end >= lastEnd[f.in] {
				lastOut[f.in], lastEnd[f.in] = f.out, end
			}
		}
		if fresh {
			instants = append(instants, t)
		}
		a = b
	}
	s.instants = instants

	res := &MulResult{
		Flows:     make(schedule.FlowSchedule, len(fs)),
		Reconfigs: len(instants),
		ConfTime:  int64(len(instants)) * delta,
	}
	before := 0 // instants at or before the current start
	for k, f := range fs {
		for before < len(instants) && instants[before] <= f.start {
			before++
		}
		out := sp[f.idx]
		end := f.start + out.Duration()
		// Instants before end: at least those before the start, and most
		// flows end within a few instants of where they start.
		below := before
		if below > 0 && instants[below-1] == f.start {
			below--
		}
		frozen := countBelow(instants, below, end)
		startShift := int64(before) * delta
		endShift := int64(frozen) * delta
		out.Start = f.start + startShift
		out.End = end + endShift
		out.Gap = endShift - startShift
		res.Flows[k] = out
	}
	return res
}

// countBelow returns how many of the ascending instants are below x, given
// that the first lo of them are: it gallops from lo in doubling steps until
// it passes x, then binary-searches the last step, so the cost grows with
// the logarithm of the answer's distance from lo, not of len(instants).
func countBelow(instants []int64, lo int, x int64) int {
	hi := lo
	for step := 1; hi < len(instants) && instants[hi] < x; step *= 2 {
		lo, hi = hi+1, hi+step
	}
	k, _ := slices.BinarySearch(instants[lo:min(hi, len(instants))], x)
	return lo + k
}

// isqrt returns ⌊√c⌋ for c ≥ 0 (0 for c < 0) in constant time: the float64
// square root is within one of it, and the corrections compare by division
// so that nothing overflows near MaxInt64.
func isqrt(c int64) int64 {
	if c <= 0 {
		return 0
	}
	r := int64(math.Sqrt(float64(c)))
	for r > c/r {
		r--
	}
	for r+1 <= c/(r+1) {
		r++
	}
	return r
}
