// Package sim is a discrete-event simulator of a single optical circuit
// switch, independent of the analytic executors in the ocs package. A
// Controller is invoked whenever the switch goes idle and decides the next
// circuit establishment from the observed remaining demand; the simulator
// enforces the all-stop reconfiguration delay, drains demand along
// established circuits, ends an establishment when every circuit has
// drained or its duration budget expires, and records the event log.
//
// Its primary roles are closed-loop (reactive) scheduling — controllers
// that decide as the switch runs, the way deployed systems do — and
// differential testing: replaying a precomputed circuit schedule through
// the simulator must reproduce ocs.ExecAllStop tick for tick.
//
// RunFaults additionally applies a faults.Schedule during the run (port
// up/down events, circuit-setup failures, δ jitter); see docs/FAULTS.md for
// the fault model and its determinism contract. Run is exactly RunFaults
// with no faults, and the zero-fault path is byte-identical to the
// pre-fault simulator.
package sim

import (
	"errors"
	"fmt"

	"reco/internal/fabric"
	"reco/internal/faults"
	"reco/internal/matrix"
	"reco/internal/obs"
	"reco/internal/ocs"
	"reco/internal/schedule"
)

// ErrController reports a controller decision that violates the switch
// model.
var ErrController = errors.New("sim: invalid controller decision")

// ErrStalled reports a run in which the controller stopped while demand
// remained.
var ErrStalled = errors.New("sim: controller stopped with demand remaining")

// ErrUnservable reports a faulted run in which demand remains only on ports
// that are down with no recovery event pending: no controller could ever
// drain it.
var ErrUnservable = errors.New("sim: remaining demand unreachable on failed ports")

// ErrNoProgress reports a faulted run whose controller kept establishing
// circuits without ever draining demand or advancing the clock.
var ErrNoProgress = errors.New("sim: controller loops without progress")

// maxStuck bounds consecutive establishments that drain no demand (setup
// failures, establishments entirely on failed ports) before the simulator
// gives up on the controller. Only reachable under fault schedules.
const maxStuck = 10_000

// State is the switch state a controller observes.
type State struct {
	// Now is the current simulation time in ticks.
	Now int64
	// Remaining is the undrained demand: a defensive copy, so a controller
	// that writes to it cannot corrupt the run, but one scratch matrix per
	// run refreshed before every call — valid until the next Next, and to
	// be cloned by a controller that wants to keep it.
	Remaining *matrix.Matrix
	// Establishments counts establishments so far.
	Establishments int
	// PortsDown marks ports currently failed, one entry per port. It is nil
	// when the run carries no fault schedule with port events; controllers
	// must treat nil as "all ports up".
	PortsDown []bool
	// NextPortEvent is the tick of the next port up/down event strictly
	// after Now, or -1 when none is pending.
	NextPortEvent int64
}

// PortUp reports whether port p is currently up.
func (s State) PortUp(p int) bool {
	return s.PortsDown == nil || !s.PortsDown[p]
}

// Decision is a controller's next move.
type Decision struct {
	// Perm is the circuit establishment (Perm[i] = egress for ingress i,
	// -1 idle). A nil Perm stops the simulation — unless Wait is positive.
	Perm []int
	// Budget caps the establishment's duration; 0 means "until every
	// matched circuit drains its pair".
	Budget int64
	// Wait, with a nil Perm, idles the switch for Wait ticks instead of
	// stopping — the move a fault-aware controller makes when all remaining
	// demand sits on failed ports and a recovery event is pending. The
	// simulator rejects waits with no port event left to wait for.
	Wait int64
}

// Controller decides establishments as the switch runs.
type Controller interface {
	// Name identifies the control policy; controllers that realize a
	// registered scheduling algorithm compose their name from the
	// internal/algo name constants.
	Name() string
	// Next is called whenever the switch is idle. Returning Decision{} (nil
	// Perm, zero Wait) ends the run.
	Next(s State) Decision
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

// Result is the outcome of a simulation.
type Result struct {
	// CCT is when the last demand drained (0 for empty demand).
	CCT int64
	// Establishments is the number of circuit establishments performed,
	// including ones whose setup failed.
	Establishments int
	// ConfTime is the total time spent reconfiguring (Establishments·delta
	// when no jitter is injected).
	ConfTime int64
	// SetupFailures counts establishments that failed to install circuits.
	SetupFailures int
	// Flows is the flow-level schedule observed (coflow 0).
	Flows schedule.FlowSchedule
	// Log is the establishment event log.
	Log []Trace
	// Faults records every fault applied during the run, in order.
	Faults []FaultRecord
}

// Run simulates the controller against demand d with reconfiguration delay
// delta until the demand drains or the controller stops. It is RunFaults
// with the empty fault schedule.
func Run(d *matrix.Matrix, ctrl Controller, delta int64) (*Result, error) {
	return RunFaults(d, ctrl, delta, nil)
}

// RunFaults simulates the controller against demand d under fault schedule
// fs. The fault model:
//
//   - Establishment k's reconfiguration takes delta + fs.Jitter(k) ticks
//     (never below zero).
//   - If fs.SetupFails(k), the delay is spent but no circuits install; the
//     switch returns to idle and the controller is consulted again.
//   - A circuit touching a port that is down when circuits come up carries
//     no traffic for the whole establishment.
//   - The first port up/down event inside a transmission window ends the
//     establishment at that tick (fault-induced idle): the controller
//     observes the new port state and decides again. The remainder of the
//     establishment's budget is lost.
//
// A nil or empty fs disables all of the above, and the simulation is then
// byte-identical to the pre-fault simulator (and to ocs.ExecAllStop under a
// Replay controller). RunFaults returns ErrUnservable (with the partial
// result) once remaining demand is reachable only through permanently
// failed ports.
func RunFaults(d *matrix.Matrix, ctrl Controller, delta int64, fs *faults.Schedule) (*Result, error) {
	if delta < 0 {
		return nil, fmt.Errorf("%w: negative delta %d", ErrController, delta)
	}
	if ctrl == nil {
		return nil, fmt.Errorf("%w: nil controller", ErrController)
	}
	n := d.N()
	if fs.Empty() {
		fs = nil
	}
	if err := fs.Validate(n); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrController, err)
	}
	rem := d.Clone()
	observed := d.Clone() // the controller's copy of rem, see State.Remaining
	fab := fabric.NewCircuit(n, 1)
	res := &Result{}
	var now int64

	// Observability is strictly read-only on the simulation: counters and
	// trace events derive from the same Result the caller gets, so an
	// attached sink can never change an outcome (enforced by the
	// instrumented-vs-uninstrumented differential test). The flush runs on
	// every exit that produced a result, including faulted partial runs.
	snk := obs.Current()
	var waits, waitTicks, drained int64
	if snk != nil {
		defer func() { flushSimObs(snk, res, waits, waitTicks, drained) }()
	}

	// Port state, maintained incrementally against the event cursor; every
	// event is applied (and recorded) exactly once.
	var down []bool
	cursor := 0
	applyEvents := func(t int64) {
		if fs == nil {
			return
		}
		from, to := fs.ApplyThrough(&cursor, down, t)
		for i := from; i < to; i++ {
			ev := fs.PortEvents[i]
			kind := FaultPortUp
			if ev.Down {
				kind = FaultPortDown
			}
			res.Faults = append(res.Faults, FaultRecord{
				Tick: ev.Tick, Kind: kind, Port: ev.Port, Establishment: -1,
			})
		}
	}
	if fs != nil {
		down = make([]bool, n)
	}

	stuck := 0
	for !rem.IsZero() {
		applyEvents(now)
		nextEvent := int64(-1)
		if fs != nil {
			nextEvent = fs.NextEventAfter(now)
			if nextEvent == -1 && unreachableOnly(rem, down) {
				return res, fmt.Errorf("%w: %d ticks left", ErrUnservable, rem.Total())
			}
		}
		var portsDown []bool
		if down != nil {
			portsDown = append([]bool(nil), down...)
		}
		observed.CopyFrom(rem)
		dec := ctrl.Next(State{
			Now:            now,
			Remaining:      observed,
			Establishments: res.Establishments,
			PortsDown:      portsDown,
			NextPortEvent:  nextEvent,
		})
		if dec.Perm == nil {
			if dec.Wait != 0 {
				if dec.Wait < 0 {
					return nil, fmt.Errorf("%w: negative wait %d", ErrController, dec.Wait)
				}
				if nextEvent == -1 {
					return nil, fmt.Errorf("%w: wait with no port event pending", ErrController)
				}
				waits++
				waitTicks += dec.Wait
				now += dec.Wait
				continue
			}
			return res, fmt.Errorf("%w: %d ticks left", ErrStalled, rem.Total())
		}
		a := ocs.Assignment{Perm: dec.Perm, Dur: 1} // duration checked below
		if err := a.Validate(n); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrController, err)
		}
		if dec.Budget < 0 {
			return nil, fmt.Errorf("%w: negative budget %d", ErrController, dec.Budget)
		}
		// The establishment must carry demand on at least one circuit —
		// alive or not; establishing toward a failed port is a legitimate
		// (if wasteful) move, establishing toward nothing is a bug.
		hasDemand := false
		for i, j := range dec.Perm {
			if j != -1 && rem.At(i, j) > 0 {
				hasDemand = true
				break
			}
		}
		if !hasDemand {
			return nil, fmt.Errorf("%w: establishment carries no demand", ErrController)
		}

		k := res.Establishments
		res.Establishments++
		dEff := delta
		if fs != nil {
			if j := fs.Jitter(k); j != 0 {
				dEff += j
				if dEff < 0 {
					dEff = 0
				}
				res.Faults = append(res.Faults, FaultRecord{
					Tick: now, Kind: FaultJitter, Port: -1, Establishment: k, Delta: dEff,
				})
			}
		}
		start := now
		now += dEff
		res.ConfTime += dEff

		if fs != nil && fs.SetupFails(k) {
			res.SetupFailures++
			res.Faults = append(res.Faults, FaultRecord{
				Tick: start, Kind: FaultSetup, Port: -1, Establishment: k,
			})
			res.Log = append(res.Log, Trace{
				Start: start, Up: now, Down: now,
				Perm: append([]int(nil), dec.Perm...), SetupFailed: true,
			})
			stuck++
			if stuck > maxStuck {
				return res, fmt.Errorf("%w: %d establishments without progress", ErrNoProgress, stuck)
			}
			continue
		}

		// Ports that fail (or recover) during the reconfiguration window
		// settle before circuits come up.
		applyEvents(now)

		// Active circuits and the establishment's natural end, over circuits
		// whose ports are up; dead circuits carry nothing and do not extend
		// the window. The fabric sees the live down mask (applyEvents
		// mutates it in place between windows).
		fab.SetPortsDown(down)
		fab.Establish(dec.Perm)
		maxRem := fab.MaxRemaining(rem)
		if maxRem == 0 {
			// Every circuit with demand is on a failed port (only reachable
			// under faults): the delay is burned and the switch idles.
			res.Log = append(res.Log, Trace{
				Start: start, Up: now, Down: now, Perm: append([]int(nil), dec.Perm...),
			})
			stuck++
			if stuck > maxStuck {
				return res, fmt.Errorf("%w: %d establishments without progress", ErrNoProgress, stuck)
			}
			continue
		}
		stuck = 0
		active := maxRem
		if dec.Budget > 0 && dec.Budget < active {
			active = dec.Budget
		}
		end := now + active
		interrupted := false
		if fs != nil {
			if ev := fs.NextEventAfter(now); ev >= 0 && ev < end {
				end = ev
				interrupted = true
			}
		}
		drained += fab.Transmit(rem, now, end, &res.Flows)
		now = end
		res.Log = append(res.Log, Trace{
			Start: start, Up: start + dEff, Down: now,
			Perm: append([]int(nil), dec.Perm...), Interrupted: interrupted,
		})
	}
	res.CCT = now
	return res, nil
}

// flushSimObs publishes one finished (or aborted) run to the sink:
// aggregate counters from the Result, plus — when a tracer is attached —
// the establishment log as reconfig/transmit spans, faults as instants,
// and every flow interval on its ingress port's track, all on the
// simulated-time axis (1 tick = 1µs in the trace viewer).
func flushSimObs(snk *obs.Sink, res *Result, waits, waitTicks, drained int64) {
	snk.Inc("sim_runs_total")
	snk.Count("sim_establishments_total", int64(res.Establishments))
	snk.Count("sim_setup_failures_total", int64(res.SetupFailures))
	snk.Count("sim_conf_ticks_total", res.ConfTime)
	snk.Count("sim_drained_ticks_total", drained)
	snk.Count("sim_waits_total", waits)
	snk.Count("sim_wait_ticks_total", waitTicks)
	for _, f := range res.Faults {
		snk.Inc(obs.L("sim_faults_total", "kind", f.Kind.String()))
	}
	snk.ObserveBuckets("sim_cct_ticks", obs.TickBuckets, float64(res.CCT))

	if snk.Trace == nil {
		return
	}
	for k, tr := range res.Log {
		args := map[string]any{"establishment": k}
		snk.TickSpan("switch", "reconfig", tr.Start, tr.Up, args)
		switch {
		case tr.SetupFailed:
			snk.TickInstant("switch", "setup-failed", tr.Up, args)
		case tr.Down > tr.Up:
			if tr.Interrupted {
				args = map[string]any{"establishment": k, "interrupted": true}
			}
			snk.TickSpan("switch", "transmit", tr.Up, tr.Down, args)
		}
	}
	for _, f := range res.Faults {
		snk.TickInstant("faults", f.Kind.String(), f.Tick, map[string]any{
			"port": f.Port, "establishment": f.Establishment,
		})
	}
	for _, fl := range res.Flows {
		snk.TickSpan(fmt.Sprintf("in %02d", fl.In), fmt.Sprintf("→%d", fl.Out),
			fl.Start, fl.End, nil)
	}
}

// unreachableOnly reports whether every remaining demand entry touches a
// port that is currently down. With no recovery event pending, such demand
// can never drain.
func unreachableOnly(rem *matrix.Matrix, down []bool) bool {
	if down == nil {
		return false
	}
	n := rem.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rem.At(i, j) > 0 && !down[i] && !down[j] {
				return false
			}
		}
	}
	return true
}
