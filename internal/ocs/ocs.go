// Package ocs models an N×N non-blocking optical circuit switch: circuit
// assignments (a matching of ingress to egress ports held for a duration),
// circuit schedules, and executors for the paper's all-stop reconfiguration
// model (Sec. II-A) and the not-all-stop extension (Sec. VI).
//
// The executors are the ground truth every algorithm in this repository is
// measured against: they charge δ per reconfiguration, stop circuits early
// when their pair's demand is exhausted (the Fig. 2 semantics), and emit a
// flow-level schedule that the schedule package can independently validate.
package ocs

import (
	"errors"
	"fmt"
	"sync"

	"reco/internal/fabric"
	"reco/internal/matrix"
	"reco/internal/schedule"
)

// ErrInvalidAssignment reports a circuit assignment that is not a partial
// matching of the fabric's ports or has a non-positive duration.
var ErrInvalidAssignment = errors.New("ocs: invalid circuit assignment")

// ErrIncomplete reports a circuit schedule that terminates with demand still
// unserved.
var ErrIncomplete = errors.New("ocs: schedule leaves unserved demand")

// Assignment is one circuit establishment held for a duration: Perm[i] is
// the egress port connected to ingress port i, or -1 when ingress i is idle.
// The port constraint requires Perm to be a partial matching (no egress port
// appears twice).
type Assignment struct {
	Perm []int
	Dur  int64
}

// Validate checks that a is a partial matching on an n-port fabric with a
// positive duration.
func (a Assignment) Validate(n int) error {
	if len(a.Perm) != n {
		return fmt.Errorf("%w: perm has %d entries, want %d", ErrInvalidAssignment, len(a.Perm), n)
	}
	if a.Dur <= 0 {
		return fmt.Errorf("%w: duration %d", ErrInvalidAssignment, a.Dur)
	}
	seen := make([]bool, n)
	for i, j := range a.Perm {
		if j == -1 {
			continue
		}
		if j < 0 || j >= n {
			return fmt.Errorf("%w: ingress %d maps to egress %d outside fabric of %d", ErrInvalidAssignment, i, j, n)
		}
		if seen[j] {
			return fmt.Errorf("%w: egress %d used twice", ErrInvalidAssignment, j)
		}
		seen[j] = true
	}
	return nil
}

// CircuitSchedule is an ordered sequence of circuit assignments.
type CircuitSchedule []Assignment

// Validate checks every assignment against an n-port fabric.
func (cs CircuitSchedule) Validate(n int) error {
	for u, a := range cs {
		if err := a.Validate(n); err != nil {
			return fmt.Errorf("assignment %d: %w", u, err)
		}
	}
	return nil
}

// Result reports the outcome of executing a circuit schedule against a
// demand matrix.
type Result struct {
	// CCT is the completion time: transmission plus reconfiguration delay.
	CCT int64
	// Reconfigs counts circuit reconfigurations actually performed;
	// assignments skipped because their circuits had no remaining demand do
	// not reconfigure the switch.
	Reconfigs int
	// ConfTime is the total time spent reconfiguring.
	ConfTime int64
	// TransTime is the total time the switch spent with circuits up
	// (CCT − ConfTime); individual circuits may go idle inside it.
	TransTime int64
	// Flows is the resulting flow-level schedule (coflow index 0), suitable
	// for independent validation via the schedule package.
	Flows schedule.FlowSchedule
}

// The executors in this package share one drain loop: fabric.Circuit's
// Transmit, with MaxRemaining supplying each establishment's natural end.
// bw = 1 reproduces the paper's unit-bandwidth semantics exactly; the
// K-core executors (ExecK) run one Circuit fabric per core.

// ExecAllStop plays the circuit schedule cs against demand d under the
// all-stop model: every reconfiguration halts the whole switch for delta.
// An assignment occupies min(Dur, max remaining demand over its circuits):
// once every circuit in the establishment has drained its pair's demand the
// switch moves on, and each individual circuit stops transmitting as soon as
// its own pair is drained (Fig. 2 semantics). Assignments none of whose
// circuits have remaining demand are skipped entirely, without a
// reconfiguration.
//
// ErrIncomplete is returned (alongside the partial result) if demand remains
// after the last assignment.
func ExecAllStop(d *matrix.Matrix, cs CircuitSchedule, delta int64) (Result, error) {
	return ExecAllStopRate(d, cs, delta, 1)
}

// ExecAllStopRate is ExecAllStop on a core whose circuits move bw demand
// units per tick instead of one. An establishment occupies
// min(Dur, ⌈maxRem/bw⌉) ticks; flow intervals are rounded up to whole ticks.
// bw = 1 is byte-identical to ExecAllStop. Executors for multi-core fabrics
// use this to honor per-core bandwidth (see ExecK).
func ExecAllStopRate(d *matrix.Matrix, cs CircuitSchedule, delta, bw int64) (Result, error) {
	n := d.N()
	if err := cs.Validate(n); err != nil {
		return Result{}, err
	}
	if delta < 0 {
		return Result{}, fmt.Errorf("%w: negative delta %d", ErrInvalidAssignment, delta)
	}
	if bw < 1 {
		return Result{}, fmt.Errorf("%w: bandwidth %d", ErrInvalidAssignment, bw)
	}
	rem := acquireResidual(d)
	defer residuals.Put(rem)
	left := d.Total() // maintained incrementally; the dense residual is never rescanned
	fab := fabric.NewCircuit(n, bw)
	var res Result
	// A circuit emits a flow only while its pair has demand left, so the
	// circuits over pairs with any demand at all bound the flow list (within
	// ~10% on dense coflows, exactly on single-port ones). Reserving that
	// once replaces a dozen append-doublings; nothing to send still means
	// nil Flows.
	most := 0
	for _, a := range cs {
		for i, j := range a.Perm {
			if j != -1 && d.At(i, j) > 0 {
				most++
			}
		}
	}
	if most > 0 {
		res.Flows = make(schedule.FlowSchedule, 0, most)
	}
	var now int64
	for _, a := range cs {
		fab.Establish(a.Perm)
		maxRem := fab.MaxRemaining(rem)
		if maxRem == 0 {
			continue // nothing to send: skip without reconfiguring
		}
		now += delta
		res.Reconfigs++
		active := a.Dur
		if t := fabric.CeilDiv(maxRem, bw); t < active {
			active = t
		}
		left -= fab.Transmit(rem, now, now+active, &res.Flows)
		now += active
		if left == 0 {
			break // demand exhausted: trailing assignments would all be skipped
		}
	}
	res.CCT = now
	res.ConfTime = int64(res.Reconfigs) * delta
	res.TransTime = res.CCT - res.ConfTime
	if left != 0 {
		return res, fmt.Errorf("%w: %d ticks left", ErrIncomplete, left)
	}
	return res, nil
}

// residuals recycles ExecAllStopRate's scratch residual across calls: a
// request then pays a copy of its demand, not a fresh n² allocation.
var residuals sync.Pool

// acquireResidual returns a scratch copy of d for the caller to drain and
// hand back to residuals.
func acquireResidual(d *matrix.Matrix) *matrix.Matrix {
	if rem, _ := residuals.Get().(*matrix.Matrix); rem != nil && rem.N() == d.N() {
		rem.CopyFrom(d)
		return rem
	}
	return d.Clone()
}

// ExecNotAllStop plays cs against d under the not-all-stop model (Sec. VI):
// a reconfiguration stalls only the circuits being set up or torn down, while
// circuits carried over unchanged from the previous establishment keep
// transmitting through the delta window. Reconfigs counts transitions that
// change at least one circuit.
func ExecNotAllStop(d *matrix.Matrix, cs CircuitSchedule, delta int64) (Result, error) {
	n := d.N()
	if err := cs.Validate(n); err != nil {
		return Result{}, err
	}
	if delta < 0 {
		return Result{}, fmt.Errorf("%w: negative delta %d", ErrInvalidAssignment, delta)
	}
	rem := d.Clone()
	left := d.Total()
	fab := fabric.NewCircuit(n, 1)
	var res Result
	var now int64
	prev := make([]int, n)
	for i := range prev {
		prev[i] = -1
	}
	for _, a := range cs {
		fab.Establish(a.Perm)
		if fab.MaxRemaining(rem) == 0 {
			continue
		}
		anyChanged := false
		for i, j := range a.Perm {
			if j == -1 {
				continue
			}
			if rem.At(i, j) > 0 && prev[i] != j {
				anyChanged = true
				break
			}
		}
		// Changed circuits come up delta after the window opens; carried-over
		// circuits transmit from the start of the window. The window closes
		// when every circuit has drained its pair (or the establishment's
		// budget, counted from when new circuits are up, runs out).
		lag := int64(0)
		if anyChanged {
			lag = delta
			res.Reconfigs++
		}
		startOf := func(i, j int) int64 {
			if prev[i] == j {
				return now // carried over: no stall for this circuit
			}
			return now + lag
		}
		fab.EstablishStaggered(a.Perm, startOf)
		var maxFinish int64
		for i, j := range a.Perm {
			if j == -1 {
				continue
			}
			r := rem.At(i, j)
			if r == 0 {
				continue
			}
			if fin := startOf(i, j) + r; fin > maxFinish {
				maxFinish = fin
			}
		}
		windowEnd := now + lag + a.Dur
		if maxFinish < windowEnd {
			windowEnd = maxFinish
		}
		left -= fab.Transmit(rem, now, windowEnd, &res.Flows)
		now = windowEnd
		copy(prev, a.Perm)
		if left == 0 {
			break
		}
	}
	res.CCT = now
	res.ConfTime = int64(res.Reconfigs) * delta
	res.TransTime = res.CCT - res.ConfTime
	if left != 0 {
		return res, fmt.Errorf("%w: %d ticks left", ErrIncomplete, left)
	}
	return res, nil
}

// LowerBound returns the single-coflow CCT lower bound T_lb = ρ + τ·δ used
// as the normalization baseline in Sec. V-B: ρ is the maximum row/column sum
// (minimum possible transmission time) and τ the maximum number of non-zero
// entries per row/column (minimum possible number of establishments).
func LowerBound(d *matrix.Matrix, delta int64) int64 {
	return d.MaxRowColSum() + int64(d.MaxRowColNonZeros())*delta
}
