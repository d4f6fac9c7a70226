// Package ocs models an N×N non-blocking optical circuit switch: circuit
// assignments (a matching of ingress to egress ports held for a duration),
// circuit schedules, and the event loop of one switching core (Core.Run)
// under the paper's all-stop reconfiguration model (Sec. II-A) and the
// not-all-stop extension (Sec. VI).
//
// The executors share that one drain loop — ExecAllStop, ExecNotAllStop and
// Core.Exec are a Core run by a Walk over the schedule; the simulator
// (internal/sim) and each core of a K-core fabric (internal/kcore) run the
// same Core under their own controllers and fault schedules. It is the
// ground truth every algorithm in this repository is measured against: it
// charges δ per reconfiguration, stops circuits early when their pair's
// demand is exhausted (the Fig. 2 semantics), and emits a flow-level
// schedule that the schedule package can independently validate.
package ocs

import (
	"errors"
	"fmt"

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
	return a.validate(make([]bool, n))
}

// validate is Validate on a fabric of len(seen) ports, with seen as the
// scratch that marks egress ports taken; it is cleared first, so one scratch
// serves a whole schedule.
func (a Assignment) validate(seen []bool) error {
	n := len(seen)
	if len(a.Perm) != n {
		return fmt.Errorf("%w: perm has %d entries, want %d", ErrInvalidAssignment, len(a.Perm), n)
	}
	if a.Dur <= 0 {
		return fmt.Errorf("%w: duration %d", ErrInvalidAssignment, a.Dur)
	}
	clear(seen)
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
	return cs.validate(make([]bool, n))
}

func (cs CircuitSchedule) validate(seen []bool) error {
	for u, a := range cs {
		if err := a.validate(seen); err != nil {
			return fmt.Errorf("assignment %d: %w", u, err)
		}
	}
	return nil
}

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
	return Core{Delta: delta, Bandwidth: 1, Flows: true}.Exec(d, cs)
}

// ExecNotAllStop plays cs against d under the not-all-stop model (Sec. VI):
// a reconfiguration stalls only the circuits being set up or torn down, while
// circuits carried over unchanged from the previous establishment keep
// transmitting through the delta window. Reconfigs counts transitions that
// change at least one circuit.
func ExecNotAllStop(d *matrix.Matrix, cs CircuitSchedule, delta int64) (Result, error) {
	return Core{Delta: delta, Bandwidth: 1, CarryOver: true, Flows: true}.Exec(d, cs)
}

// Exec plays the precomputed schedule cs against d on c; the executors
// above are Exec on the cores they name, keeping flows. On a core whose
// circuits move Bandwidth demand units per tick an establishment occupies
// min(Dur, ⌈maxRem/Bandwidth⌉) ticks and flow intervals are rounded up to
// whole ticks; K-core fabrics run each core this way (kcore.Exec). A caller
// that reads only the totals leaves c.Flows off and no flow list is built.
func (c Core) Exec(d *matrix.Matrix, cs CircuitSchedule) (Result, error) {
	return c.exec(d, cs, nil)
}

// exec runs c over the precomputed schedule cs, appending the run's flows to
// flows when c records them; a nil flows then reserves FlowBound(d, cs) of
// its own. The whole schedule
// is validated up front, so a bad trailing assignment is rejected even when
// the demand drains before the walk reaches it; nothing is returned next to
// an invalid schedule or core.
func (c Core) exec(d *matrix.Matrix, cs CircuitSchedule, flows schedule.FlowSchedule) (Result, error) {
	sc := acquireScratch(d)
	defer sc.release()
	if err := cs.validate(sc.seen); err != nil {
		return Result{}, err
	}
	if c.Flows && flows == nil {
		if most := FlowBound(d, cs); most > 0 {
			flows = make(schedule.FlowSchedule, 0, most)
		}
	}
	sc.walk = Walk{Schedule: cs}
	return c.run(sc, d, &sc.walk, flows, true)
}

// FlowBound is the most flow intervals playing cs against d can emit. A
// circuit emits a flow only while its pair has demand left, so the circuits
// over pairs with any demand at all bound the flow list (within ~10% on
// dense coflows, exactly on single-port ones): reserving that once replaces
// a dozen append-doublings. Circuits outside d's fabric count nothing, so
// the bound may be taken before cs is validated.
func FlowBound(d *matrix.Matrix, cs CircuitSchedule) int {
	n := d.N()
	most := 0
	for _, a := range cs {
		for i, j := range a.Perm[:min(len(a.Perm), n)] {
			if uint(j) < uint(n) && d.At(i, j) > 0 {
				most++
			}
		}
	}
	return most
}

// LowerBound returns the single-coflow CCT lower bound T_lb = ρ + τ·δ used
// as the normalization baseline in Sec. V-B: ρ is the maximum row/column sum
// (minimum possible transmission time) and τ the maximum number of non-zero
// entries per row/column (minimum possible number of establishments).
func LowerBound(d *matrix.Matrix, delta int64) int64 {
	return d.MaxRowColSum() + int64(d.MaxRowColNonZeros())*delta
}
