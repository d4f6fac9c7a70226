package ocs

import (
	"errors"
	"fmt"
	"sync"

	"reco/internal/fabric"
	"reco/internal/faults"
	"reco/internal/matrix"
	"reco/internal/schedule"
)

// ErrUnservable reports a faulted run in which demand remains only on ports
// that are down with no recovery event pending: no controller could ever
// drain it.
var ErrUnservable = errors.New("ocs: remaining demand unreachable on failed ports")

// ErrNoProgress reports a faulted run whose controller kept establishing
// circuits without ever draining demand or advancing the clock.
var ErrNoProgress = errors.New("ocs: controller loops without progress")

// maxStuck bounds consecutive establishments that drain no demand (setup
// failures, establishments entirely on failed ports) before the loop gives
// up on the controller. Only reachable under fault schedules.
const maxStuck = 10_000

// Residual is a controller's view of the undrained demand: the run's own
// residual matrix, readable and not writable, so no decision can corrupt the
// run and none costs a defensive copy. It is valid until the controller's
// next call; Clone keeps it.
type Residual struct {
	m     *matrix.Matrix
	total int64
}

// N returns the port count.
func (r Residual) N() int { return r.m.N() }

// At returns the undrained demand from ingress i to egress j.
func (r Residual) At(i, j int) int64 { return r.m.At(i, j) }

// Total returns the undrained demand over all pairs, which the run keeps as
// a counter.
func (r Residual) Total() int64 { return r.total }

// IsZero reports whether everything has drained.
func (r Residual) IsZero() bool { return r.total == 0 }

// Clone returns a matrix of the undrained demand for the caller to own.
func (r Residual) Clone() *matrix.Matrix { return r.m.Clone() }

// AcquireClone is Clone into a pooled matrix (matrix.AcquireClone), for a
// scratch copy the caller hands back with Recycle.
func (r Residual) AcquireClone() *matrix.Matrix { return matrix.AcquireClone(r.m) }

// State is the switch state a controller observes.
type State struct {
	// Now is the current time in ticks.
	Now int64
	// Remaining is the undrained demand.
	Remaining Residual
	// Establishments counts reconfigurations so far.
	Establishments int
	// NextPortEvent is the tick of the next port up/down event strictly
	// after Now, or -1 when none is pending.
	NextPortEvent int64
	// down is the run's live port mask; nil when the run has no faults.
	down []bool
}

// PortUp reports whether port p is currently up.
func (s State) PortUp(p int) bool {
	return s.down == nil || !s.down[p]
}

// Decision is a controller's next move.
type Decision struct {
	// Perm is the circuit establishment (Perm[i] = egress for ingress i,
	// -1 idle). A nil Perm stops the run — unless Wait is positive.
	Perm []int
	// Budget caps the establishment's duration; 0 means "until every
	// matched circuit drains its pair".
	Budget int64
	// Wait, with a nil Perm, idles the switch for Wait ticks instead of
	// stopping — the move a fault-aware controller makes when all remaining
	// demand sits on failed ports and a recovery event is pending. Waits
	// with no port event left to wait for are rejected.
	Wait int64
}

// Controller decides establishments as the switch runs: Next is called
// whenever the switch is idle, and Decision{} (nil Perm, zero Wait) ends
// the run.
type Controller interface {
	Next(s State) Decision
}

// Walk is the controller that plays back a precomputed circuit schedule:
// each call issues the next assignment some circuit of which still has
// demand, at the assignment's duration as budget. Assignments that have
// drained cost nothing to skip.
type Walk struct {
	Schedule CircuitSchedule
	// Loop starts over at the end of the schedule, for as long as one full
	// cycle still finds an assignment to issue.
	Loop bool
	// Live also skips assignments whose undrained circuits all touch a port
	// that is down.
	Live bool
	pos  int
}

// Next implements Controller.
func (w *Walk) Next(s State) Decision {
	n := len(w.Schedule)
	for tried := 0; tried < n && (w.Loop || w.pos < n); tried++ {
		a := w.Schedule[w.pos%n]
		w.pos++
		for i, j := range a.Perm {
			if j != -1 && s.Remaining.At(i, j) > 0 && (!w.Live || s.PortUp(i) && s.PortUp(j)) {
				return Decision{Perm: a.Perm, Budget: a.Dur}
			}
		}
	}
	return Decision{}
}

// Trace is one establishment in the event log.
type Trace struct {
	// Start is when the reconfiguration for this establishment began.
	Start int64
	// Up is when circuits began transmitting (Start + the effective δ).
	Up int64
	// Down is when the establishment ended.
	Down int64
	// Perm is the establishment.
	Perm []int
	// SetupFailed marks an establishment that burned its reconfiguration
	// delay without installing circuits.
	SetupFailed bool
	// Interrupted marks an establishment cut short by a port up/down event.
	Interrupted bool
}

// FaultKind labels one entry of a faulted run's fault record.
type FaultKind int

const (
	// FaultPortDown and FaultPortUp are port state transitions.
	FaultPortDown FaultKind = iota
	FaultPortUp
	// FaultSetup is a circuit establishment that failed to install.
	FaultSetup
	// FaultJitter is an establishment whose reconfiguration delay deviated
	// from the nominal δ.
	FaultJitter
)

// String renders the kind for logs.
func (k FaultKind) String() string {
	switch k {
	case FaultPortDown:
		return "port-down"
	case FaultPortUp:
		return "port-up"
	case FaultSetup:
		return "setup-fail"
	case FaultJitter:
		return "jitter"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// FaultRecord is one fault applied during a run.
type FaultRecord struct {
	// Tick is when the fault took effect.
	Tick int64
	// Kind classifies the fault.
	Kind FaultKind
	// Port is the affected port for port events, -1 otherwise.
	Port int
	// Establishment is the affected establishment index for setup failures
	// and jitter, -1 otherwise.
	Establishment int
	// Delta is the effective reconfiguration delay for jitter records.
	Delta int64
}

// Result reports the outcome of running demand through one switching core.
type Result struct {
	// CCT is when the run stopped: the completion time when everything
	// drained, the tick the run gave up when it is returned next to an error.
	CCT int64
	// Reconfigs counts circuit reconfigurations actually performed, ones
	// whose setup failed included; assignments skipped because their
	// circuits had no remaining demand do not reconfigure the switch.
	Reconfigs int
	// ConfTime is the total time spent reconfiguring (Reconfigs·δ when no
	// jitter is injected).
	ConfTime int64
	// TransTime is the rest of the run (CCT − ConfTime): the time the switch
	// spent with circuits up, or waiting out an outage; individual circuits
	// may go idle inside it.
	TransTime int64
	// SetupFailures counts reconfigurations that failed to install circuits.
	SetupFailures int
	// Waits counts the controller's decisions to idle, WaitTicks their total.
	Waits     int
	WaitTicks int64
	// Flows is the resulting flow-level schedule (coflow index 0), suitable
	// for independent validation via the schedule package.
	Flows schedule.FlowSchedule
	// Log is the establishment event log, kept when Core.Log asks for it.
	Log []Trace
	// Faults records every fault applied during the run, in order.
	Faults []FaultRecord
	// Residual is the demand a run that stopped short left undrained; nil
	// when everything drained.
	Residual *matrix.Matrix
}

// Core is one switching core: an N×N crossbar with its own reconfiguration
// delay and circuit bandwidth, and what may go wrong on it.
type Core struct {
	// Delta is the reconfiguration delay in ticks.
	Delta int64
	// Bandwidth is what one circuit moves per tick; 1 is the paper's switch.
	Bandwidth int64
	// Faults injects port up/down events, circuit-setup failures and δ
	// jitter; nil or empty is the perfect switch.
	Faults *faults.Schedule
	// CarryOver selects the not-all-stop model (Sec. VI): circuits an
	// establishment shares with the one before it transmit through the
	// reconfiguration, and an establishment that changes no circuit with
	// demand left is not a reconfiguration at all. All-stop is the same
	// loop in which nothing is ever carried over.
	CarryOver bool
	// Flows and Log select what the Result records beyond its totals.
	Flows, Log bool
}

// Run drives ctrl against demand d until the demand drains or the controller
// stops. Each round it asks ctrl for the next establishment, pays the
// reconfiguration delay, and drains along the circuits until every live one
// has drained its pair, the decision's budget runs out or a port event
// lands. Under c.Faults:
//
//   - Reconfiguration k takes Delta + Faults.Jitter(k) ticks (never below
//     zero).
//   - If Faults.SetupFails(k), the delay is spent but no circuits install;
//     the switch returns to idle and the controller is consulted again.
//   - A circuit touching a port that is down when circuits come up carries
//     no traffic for the whole establishment.
//   - The first port up/down event inside a transmission window ends the
//     establishment at that tick: the controller observes the new port
//     state and decides again. The remainder of the budget is lost.
//
// A partial result comes back next to every error but ErrInvalidAssignment
// (a core or a decision that violates the switch model): ErrIncomplete when
// the controller stopped with demand left, ErrUnservable once remaining
// demand is reachable only through permanently failed ports, ErrNoProgress
// after maxStuck establishments in a row that drained nothing.
func (c Core) Run(d *matrix.Matrix, ctrl Controller) (Result, error) {
	sc := acquireScratch(d)
	defer sc.release()
	return c.run(sc, d, ctrl, nil, false)
}

// run is Run on the scratch sc, appending the flows it records to flows.
// checked says ctrl walks a schedule validated up front, so its decisions
// are not checked one by one again.
func (c Core) run(sc *scratch, d *matrix.Matrix, ctrl Controller, flows schedule.FlowSchedule, checked bool) (Result, error) {
	n := d.N()
	fs := c.Faults
	if fs.Empty() {
		fs = nil
	}
	switch {
	case c.Delta < 0:
		return Result{}, fmt.Errorf("%w: negative delta %d", ErrInvalidAssignment, c.Delta)
	case c.Bandwidth < 1:
		return Result{}, fmt.Errorf("%w: bandwidth %d", ErrInvalidAssignment, c.Bandwidth)
	case ctrl == nil:
		return Result{}, fmt.Errorf("%w: nil controller", ErrInvalidAssignment)
	}
	if err := fs.Validate(n); err != nil {
		return Result{}, fmt.Errorf("%w: %v", ErrInvalidAssignment, err)
	}

	rem := sc.rem
	left := d.Total() // undrained demand, kept as a counter: the residual is never rescanned
	fab := fabric.NewCircuit(c.Bandwidth)
	var res Result
	var record *schedule.FlowSchedule
	if c.Flows {
		res.Flows, record = flows, &res.Flows
	}
	st := State{Remaining: Residual{m: rem}}

	// Port state, maintained incrementally against the event cursor; every
	// event is applied (and recorded) exactly once. reach is the part of
	// left on pairs whose two ports are up: circuits drain nothing else, so
	// it is rescanned only when a port changes state.
	reach, cursor := left, 0
	if fs != nil {
		st.down = make([]bool, n)
		fab.SetPortsDown(st.down)
	}
	applyEvents := func(t int64) {
		from, to := fs.ApplyThrough(&cursor, st.down, t)
		if from == to {
			return
		}
		for _, ev := range fs.PortEvents[from:to] {
			kind := FaultPortUp
			if ev.Down {
				kind = FaultPortDown
			}
			res.Faults = append(res.Faults, FaultRecord{Tick: ev.Tick, Kind: kind, Port: ev.Port, Establishment: -1})
		}
		reach = 0
		rem.ForEachNonZero(func(i, j int, v int64) {
			if !st.down[i] && !st.down[j] {
				reach += v
			}
		})
	}

	// Not-all-stop only: the previous establishment, and when each circuit
	// of the next one is ready.
	var prev []int
	var ready []int64
	if c.CarryOver {
		prev, ready = make([]int, n), make([]int64, n)
		for i := range prev {
			prev[i] = -1
		}
	}

	var now int64
	var err error
	stuck := 0
	// burned closes an establishment that spent its delay and carried
	// nothing, and reports whether the controller has had enough of those.
	burned := func(tr Trace) bool {
		now, tr.Down = tr.Up, tr.Up
		c.log(&res, tr)
		stuck++
		if stuck > maxStuck {
			err = fmt.Errorf("%w: %d establishments without progress", ErrNoProgress, stuck)
		}
		return err != nil
	}
	for left != 0 {
		st.NextPortEvent = -1
		if fs != nil {
			applyEvents(now)
			st.NextPortEvent = fs.NextEventAfter(now)
			if st.NextPortEvent == -1 && reach == 0 {
				err = fmt.Errorf("%w: %d ticks left", ErrUnservable, left)
				break
			}
		}
		st.Now, st.Remaining.total, st.Establishments = now, left, res.Reconfigs
		dec := ctrl.Next(st)
		if dec.Perm == nil {
			switch {
			case dec.Wait == 0:
				err = fmt.Errorf("%w: %d ticks left", ErrIncomplete, left)
			case dec.Wait < 0:
				return Result{}, fmt.Errorf("%w: negative wait %d", ErrInvalidAssignment, dec.Wait)
			case st.NextPortEvent == -1:
				return Result{}, fmt.Errorf("%w: wait with no port event pending", ErrInvalidAssignment)
			}
			if err != nil {
				break
			}
			res.Waits++
			res.WaitTicks += dec.Wait
			now += dec.Wait
			continue
		}
		if !checked {
			if err := sc.check(dec, rem); err != nil {
				return Result{}, err
			}
		}

		// Pay the reconfiguration delay — unless (not-all-stop) every
		// circuit with demand left is carried over from the establishment
		// before, which then simply keeps transmitting.
		changed := prev == nil
		if !changed {
			for i, j := range dec.Perm {
				if j != -1 && prev[i] != j && rem.At(i, j) > 0 {
					changed = true
					break
				}
			}
		}
		tr := Trace{Start: now, Up: now, Perm: dec.Perm}
		if changed {
			k := res.Reconfigs
			res.Reconfigs++
			delta := c.Delta
			if j := fs.Jitter(k); j != 0 {
				delta = max(delta+j, 0)
				res.Faults = append(res.Faults, FaultRecord{Tick: now, Kind: FaultJitter, Port: -1, Establishment: k, Delta: delta})
			}
			tr.Up += delta
			res.ConfTime += delta
			if fs.SetupFails(k) {
				res.SetupFailures++
				res.Faults = append(res.Faults, FaultRecord{Tick: now, Kind: FaultSetup, Port: -1, Establishment: k})
				tr.SetupFailed = true
				if burned(tr) {
					break
				}
				continue
			}
			if fs != nil {
				// Ports that fail (or recover) during the reconfiguration
				// window settle before circuits come up.
				applyEvents(tr.Up)
			}
		}

		if prev == nil {
			fab.Establish(dec.Perm)
		} else {
			for i, j := range dec.Perm {
				ready[i] = tr.Up
				if j != -1 && prev[i] == j {
					ready[i] = now // carried over: no stall for this circuit
				}
			}
			fab.EstablishStaggered(dec.Perm, ready)
			copy(prev, dec.Perm)
		}
		// The window closes when the slowest live circuit has drained its
		// pair, when the budget (counted from when new circuits are up) runs
		// out, or at the first port event. Circuits on failed ports carry
		// nothing and do not extend it.
		end, live := fab.DrainEnd(rem, tr.Up)
		if !live {
			// Every circuit with demand is on a failed port (only reachable
			// under faults): the delay is burned and the switch idles.
			if burned(tr) {
				break
			}
			continue
		}
		stuck = 0
		// Compared as a difference: Up + Budget can wrap past MaxInt64.
		if dec.Budget > 0 && dec.Budget < end-tr.Up {
			end = tr.Up + dec.Budget
		}
		if ev := fs.NextEventAfter(tr.Up); ev >= 0 && ev < end {
			end, tr.Interrupted = ev, true
		}
		sent := fab.Transmit(rem, tr.Up, end, record)
		left -= sent
		reach -= sent
		now, tr.Down = end, end
		c.log(&res, tr)
	}
	res.CCT = now
	res.TransTime = now - res.ConfTime
	if left != 0 {
		res.Residual, sc.rem = rem, nil
	}
	return res, err
}

// log appends one finished establishment to the event log of a run that
// keeps one. The controller may reuse its perm, so the log copies it.
func (c Core) log(res *Result, tr Trace) {
	if !c.Log {
		return
	}
	tr.Perm = append([]int(nil), tr.Perm...)
	res.Log = append(res.Log, tr)
}

// scratch is what one run needs besides its result: the residual it drains,
// the egress marks of assignment validation, and the schedule walk of a plan
// executor. Recycled across runs of any port count, so a request pays a copy
// of its demand into a pooled matrix (matrix.AcquireClone), not a fresh n²
// allocation, and nothing per assignment.
type scratch struct {
	rem  *matrix.Matrix
	seen []bool
	walk Walk
}

var scratches sync.Pool

// acquireScratch returns a scratch for a run over d, its residual a copy of
// d.
func acquireScratch(d *matrix.Matrix) *scratch {
	sc, _ := scratches.Get().(*scratch)
	if sc == nil {
		sc = new(scratch)
	}
	n := d.N()
	if cap(sc.seen) < n {
		sc.seen = make([]bool, n)
	}
	sc.seen = sc.seen[:n]
	sc.rem = matrix.AcquireClone(d)
	return sc
}

// release recycles sc and hands its residual back to the matrix pool,
// unless the residual left with a Result.
func (sc *scratch) release() {
	sc.rem.Recycle()
	sc.rem, sc.walk = nil, Walk{}
	scratches.Put(sc)
}

// check holds a decision to the switch model: a partial matching, a
// non-negative budget, and demand left on at least one circuit — alive or
// not; establishing toward a failed port is a legitimate (if wasteful) move,
// establishing toward nothing is a bug.
func (sc *scratch) check(dec Decision, rem *matrix.Matrix) error {
	if err := (Assignment{Perm: dec.Perm, Dur: 1}).validate(sc.seen); err != nil {
		return err
	}
	if dec.Budget < 0 {
		return fmt.Errorf("%w: negative budget %d", ErrInvalidAssignment, dec.Budget)
	}
	for i, j := range dec.Perm {
		if j != -1 && rem.At(i, j) > 0 {
			return nil
		}
	}
	return fmt.Errorf("%w: establishment carries no demand", ErrInvalidAssignment)
}
