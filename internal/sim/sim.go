// Package sim is the closed-loop face of the switch model: controllers that
// decide establishments as the switch runs, the way deployed systems do,
// from the observed remaining demand and port state. Run and RunFaults hand a
// controller to the event loop of one switching core (ocs.Core.Run — the
// loop behind the analytic executors too), keep its establishment log and
// fault records, and publish the finished run to the attached obs sink as
// the sim_* series and a simulated-time trace.
//
// This package holds the controllers — Replay and ReplayLoop over a
// precomputed schedule, the reactive GreedyBottleneck and GreedyMaxWeight,
// the fault-aware Recover and its known-outage variant RunPredictive. See
// docs/FAULTS.md for the fault model a faults.Schedule injects and its
// determinism contract.
package sim

import (
	"errors"
	"fmt"

	"reco/internal/faults"
	"reco/internal/matrix"
	"reco/internal/obs"
	"reco/internal/ocs"
)

// ErrController reports a controller decision that violates the switch
// model.
var ErrController = errors.New("sim: invalid controller decision")

// ErrStalled reports a run in which the controller stopped while demand
// remained.
var ErrStalled = errors.New("sim: controller stopped with demand remaining")

// ErrUnservable and ErrNoProgress are the event loop's own: demand left only
// on permanently failed ports, and a controller that keeps establishing
// without draining anything.
var (
	ErrUnservable = ocs.ErrUnservable
	ErrNoProgress = ocs.ErrNoProgress
)

// The loop's vocabulary, under the names controllers here are written in.
type (
	State       = ocs.State
	Decision    = ocs.Decision
	Result      = ocs.Result
	Trace       = ocs.Trace
	FaultKind   = ocs.FaultKind
	FaultRecord = ocs.FaultRecord
)

// The fault kinds of a run's fault record.
const (
	FaultPortDown = ocs.FaultPortDown
	FaultPortUp   = ocs.FaultPortUp
	FaultSetup    = ocs.FaultSetup
	FaultJitter   = ocs.FaultJitter
)

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

// Run simulates the controller against demand d with reconfiguration delay
// delta until the demand drains or the controller stops. It is RunFaults
// with the empty fault schedule.
func Run(d *matrix.Matrix, ctrl Controller, delta int64) (*Result, error) {
	return RunFaults(d, ctrl, delta, nil)
}

// RunFaults simulates the controller against demand d under fault schedule
// fs on a unit-bandwidth all-stop core; ocs.Core.Run documents the fault
// model. A nil or empty fs disables all of it, and the run is then exactly
// ocs.ExecAllStop under a Replay controller. A partial result comes back
// next to ErrStalled, ErrUnservable (remaining demand reachable only through
// permanently failed ports) and ErrNoProgress; none next to ErrController.
func RunFaults(d *matrix.Matrix, ctrl Controller, delta int64, fs *faults.Schedule) (*Result, error) {
	res, err := ocs.Core{Delta: delta, Bandwidth: 1, Faults: fs, Flows: true, Log: true}.Run(d, ctrl)
	switch {
	case errors.Is(err, ocs.ErrInvalidAssignment):
		return nil, fmt.Errorf("%w: %v", ErrController, err)
	case errors.Is(err, ocs.ErrIncomplete):
		err = fmt.Errorf("%w: %v", ErrStalled, err)
	}
	// Observability is strictly read-only on the simulation: counters and
	// trace events derive from the same Result the caller gets, so an
	// attached sink can never change an outcome (enforced by the
	// instrumented-vs-uninstrumented differential test). The flush runs on
	// every exit that produced a result, including faulted partial runs.
	if snk := obs.Current(); snk != nil {
		flushSimObs(snk, &res)
	}
	return &res, err
}

// flushSimObs publishes one finished (or aborted) run to the sink:
// aggregate counters from the Result, plus — when a tracer is attached —
// the establishment log as reconfig/transmit spans, faults as instants,
// and every flow interval on its ingress port's track, all on the
// simulated-time axis (1 tick = 1µs in the trace viewer).
func flushSimObs(snk *obs.Sink, res *Result) {
	var drained int64
	for _, fl := range res.Flows {
		drained += fl.End - fl.Start // unit bandwidth: a tick moves one unit
	}
	snk.Inc("sim_runs_total")
	snk.Count("sim_establishments_total", int64(res.Reconfigs))
	snk.Count("sim_setup_failures_total", int64(res.SetupFailures))
	snk.Count("sim_conf_ticks_total", res.ConfTime)
	snk.Count("sim_drained_ticks_total", drained)
	snk.Count("sim_waits_total", int64(res.Waits))
	snk.Count("sim_wait_ticks_total", res.WaitTicks)
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
