// Package sim is the closed-loop face of the switch model: controllers that
// decide establishments as the switch runs, the way deployed systems do,
// from the observed remaining demand and port state. RunFaults hands a
// controller (any ocs.Controller) to the event loop of one switching core
// (ocs.Core.Run — the loop behind the analytic executors too), keeps its
// flows, establishment log and fault records, and publishes the finished
// run to the attached obs sink as the sim_* series and a simulated-time
// trace; Run does the same on a core that may keep less.
//
// This package holds the controllers — Replay and ReplayLoop over a
// precomputed schedule, the reactive GreedyBottleneck and GreedyMaxWeight,
// the fault-aware Recover and its known-outage variant RunPredictive. See
// docs/FAULTS.md for the fault model a faults.Schedule injects and its
// determinism contract.
//
// The loop's own vocabulary (State, Decision, Result, Trace, FaultRecord)
// is ocs's, and callers name it there. The package stays separate from ocs
// because its controllers lean on packages that themselves import ocs:
// Recover replans with core.RecoSinCtx and takes its name from internal/algo,
// as GreedyMaxWeight does. Inside ocs they would close an import cycle.
// The repository benchmark (bench/) also calls RunFaults and NewReplay by
// these names.
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

// RunFaults simulates the controller against demand d under fault schedule
// fs on a unit-bandwidth all-stop core; ocs.Core.Run documents the fault
// model. A nil or empty fs disables all of it, and the run is then exactly
// ocs.ExecAllStop under a Replay controller. A partial result comes back
// next to ErrStalled, ocs.ErrUnservable (remaining demand reachable only
// through permanently failed ports) and ocs.ErrNoProgress; none next to
// ErrController. The result keeps the flows and the establishment log.
func RunFaults(d *matrix.Matrix, ctrl ocs.Controller, delta int64, fs *faults.Schedule) (*ocs.Result, error) {
	return Run(ocs.Core{Delta: delta, Bandwidth: 1, Faults: fs, Flows: true, Log: true}, d, ctrl)
}

// Run is RunFaults on the core c, whose Flows and Log fields say what the
// result keeps besides its totals and fault records: a caller that reads
// only the CCT and the counts leaves both off, and the run builds neither
// list.
func Run(c ocs.Core, d *matrix.Matrix, ctrl ocs.Controller) (*ocs.Result, error) {
	res, err := c.Run(d, ctrl)
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
		flushSimObs(snk, d, &res)
	}
	return &res, err
}

// flushSimObs publishes one finished (or aborted) run of demand d to the
// sink: aggregate counters from the Result, plus — when a tracer is
// attached — the establishment log as reconfig/transmit spans, faults as
// instants, and every flow interval on its ingress port's track, all on the
// simulated-time axis (1 tick = 1µs in the trace viewer). A run that kept
// no log or flows traces none.
func flushSimObs(snk *obs.Sink, d *matrix.Matrix, res *ocs.Result) {
	drained := d.Total() // unit bandwidth: a tick moves one unit
	if res.Residual != nil {
		drained -= res.Residual.Total()
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
	TraceLog(snk, "switch", res.Log)
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

// TraceLog writes an establishment log to the sink's tracer on one track:
// a reconfig span per establishment, then a setup-failed instant or a
// transmit span (marked interrupted when a port event cut it short).
func TraceLog(snk *obs.Sink, track string, log []ocs.Trace) {
	for k, tr := range log {
		args := map[string]any{"establishment": k}
		snk.TickSpan(track, "reconfig", tr.Start, tr.Up, args)
		switch {
		case tr.SetupFailed:
			snk.TickInstant(track, "setup-failed", tr.Up, args)
		case tr.Down > tr.Up:
			if tr.Interrupted {
				args = map[string]any{"establishment": k, "interrupted": true}
			}
			snk.TickSpan(track, "transmit", tr.Up, tr.Down, args)
		}
	}
}
