package sim

import (
	"context"
	"errors"

	"reco/internal/algo"
	"reco/internal/core"
	"reco/internal/faults"
	"reco/internal/matrix"
	"reco/internal/ocs"
)

// Recover is the fault-aware controller. It keeps a Reco-Sin plan and
// follows it lazily:
//
//   - Assignments none of whose undrained circuits are currently alive are
//     consumed without an establishment — the blind replay pays δ for each
//     of those and drains nothing.
//   - When the plan runs out with demand remaining (leftovers from failed
//     ports, interrupted windows or setup failures), it recomputes the
//     residual demand restricted to surviving ports and replans it with
//     Reco-Sin. Re-decomposing a partially drained residual re-regularizes
//     and re-stuffs it, which can cost more establishments than the original
//     max-min decomposition would; the controller therefore estimates the
//     completion cost of the fresh plan against simply re-walking the base
//     schedule over the residual, and follows the cheaper of the two. Port
//     events do not discard the in-flight plan; leftovers are swept by the
//     next replan.
//   - When every remaining entry is stranded on failed ports, it does not
//     burn reconfigurations: it idles until a reconfiguration started now
//     would complete exactly at the next port event, then speculatively
//     establishes toward the stranded demand so circuits are up the
//     instant a repair lands.
//   - An establishment that drained nothing under an unchanged port state
//     can only be a circuit-setup failure; it is retried as-is instead of
//     being abandoned to a later replan.
type Recover struct {
	delta int64

	// base is the first full-demand plan, kept as the replan fallback: the
	// original decomposition often serves a residual in fewer
	// establishments than a fresh decomposition of it.
	base ocs.CircuitSchedule
	plan ocs.Walk

	// Last establishment issued, with the demand left and the ports down at
	// the time, for setup-failure detection.
	last      ocs.Decision
	lastTotal int64
	lastDown  []bool
}

// NewRecover returns a Recover controller planning with reconfiguration
// delay delta.
func NewRecover(delta int64) *Recover {
	return &Recover{delta: delta}
}

// RunPredictive runs the recovery policy on core c for the KNOWN outage
// schedule c.Faults — the degraded-CCT experiment's setting, where injected
// faults play the role of a published maintenance plan. Online replanning
// with only the current port state in view is myopic: a replan tuned to
// today's surviving ports can be invalidated by the next failure, and the
// blind replay occasionally gets lucky. With the schedule in hand the policy
// instead forward-simulates both — the replanning Recover here, planning
// with c.Delta, and the naive ReplayLoop in the run the caller hands in as
// replay (nil when that run failed) — under the exact fault sequence and
// commits to whichever completes earlier. The simulator is deterministic, so
// the forecast is the run: the result returned is the winner's own (replay
// itself when the replay wins), never slower than the naive replay by
// construction. The Recover run keeps what c asks for (Run).
func RunPredictive(c ocs.Core, d *matrix.Matrix, replay *ocs.Result) (*ocs.Result, error) {
	rec, err := Run(c, d, NewRecover(c.Delta))
	if replay != nil && (err != nil || replay.CCT < rec.CCT) {
		return replay, nil
	}
	return rec, err
}

// Name names the policy: the recovery controller replans residual demand
// with the registered Reco-Sin scheduler.
func (rc *Recover) Name() string { return algo.NameRecoSin + "-recover" }

// Next implements ocs.Controller.
func (rc *Recover) Next(s ocs.State) ocs.Decision {
	// A previous establishment that drained nothing under an unchanged port
	// state can only be a setup failure: retry it.
	if rc.last.Perm != nil && s.Remaining.Total() == rc.lastTotal && rc.portsUnchanged(s) {
		return rc.last
	}

	if dec, ok := rc.pop(s, true); ok {
		return rc.issue(dec, s)
	}
	if rc.replan(s, true) {
		if dec, ok := rc.pop(s, true); ok {
			return rc.issue(dec, s)
		}
	}
	// No servable demand on surviving ports. If a port event is pending,
	// overlap the reconfiguration delay with the outage: idle until a
	// reconfiguration started now would finish at the event, then establish
	// toward the stranded demand so circuits come up as the state changes.
	rc.last = ocs.Decision{}
	if s.NextPortEvent > s.Now {
		if wait := s.NextPortEvent - s.Now - rc.delta; wait > 0 {
			return ocs.Decision{Wait: wait}
		}
		if rc.replan(s, false) {
			if dec, ok := rc.pop(s, false); ok {
				return rc.issue(dec, s)
			}
		}
		return ocs.Decision{Wait: s.NextPortEvent - s.Now}
	}
	return ocs.Decision{}
}

// pop consumes plan entries until one carries undrained demand — on a
// circuit that is alive right now when live is set; the speculative
// pre-repair path establishes toward demand whose ports are still down.
// Dead-circuit and fully drained assignments cost nothing to skip.
func (rc *Recover) pop(s ocs.State, live bool) (ocs.Decision, bool) {
	rc.plan.Live = live
	dec := rc.plan.Next(s)
	return dec, dec.Perm != nil
}

// issue records the decision for setup-failure detection and returns it.
func (rc *Recover) issue(dec ocs.Decision, s ocs.State) ocs.Decision {
	rc.last, rc.lastTotal = dec, s.Remaining.Total()
	rc.lastDown = rc.lastDown[:0]
	for p := 0; p < s.Remaining.N(); p++ {
		rc.lastDown = append(rc.lastDown, !s.PortUp(p))
	}
	return dec
}

// portsUnchanged reports whether the ports down now are the ones that were
// down at the last issue.
func (rc *Recover) portsUnchanged(s ocs.State) bool {
	for p, down := range rc.lastDown {
		if down == s.PortUp(p) {
			return false
		}
	}
	return true
}

// replan computes a fresh Reco-Sin plan over the residual demand — restricted
// to surviving ports when restrict is set, over everything (the speculative
// pre-repair plan) otherwise. When a base schedule exists, the fresh plan is
// adopted only if its estimated completion cost on the residual beats
// re-walking the base schedule; ties keep the base. It reports false when the
// chosen residual is empty.
func (rc *Recover) replan(s ocs.State, restrict bool) bool {
	rc.plan = ocs.Walk{}
	// Reco-Sin keeps nothing of its input, so the copy goes back to the
	// pool once the plan is built.
	resid := s.Remaining.AcquireClone()
	defer resid.Recycle()
	if restrict {
		resid.ForEachNonZero(func(i, j int, _ int64) {
			if !s.PortUp(i) || !s.PortUp(j) {
				resid.Set(i, j, 0)
			}
		})
	}
	if resid.IsZero() {
		return false
	}
	cs, err := core.RecoSinCtx(context.Background(), resid, rc.delta)
	if err != nil || len(cs) == 0 {
		if rc.base == nil {
			return false
		}
		rc.plan.Schedule = rc.base
		return true
	}
	if rc.base == nil {
		// First plan over the full demand: this is the base schedule.
		rc.base = cs
		rc.plan.Schedule = cs
		return true
	}
	csCost, csDone := rc.estimate(cs, s)
	baseCost, baseDone := rc.estimate(rc.base, s)
	if csDone && (!baseDone || csCost < baseCost) {
		rc.plan.Schedule = cs
	} else {
		rc.plan.Schedule = rc.base
	}
	return true
}

// estimate dry-runs plan against the residual demand with the ports frozen
// as they are now: the event loop itself, keeping neither flows nor log,
// under a walk that skips assignments with no undrained alive circuit, on
// pooled copies of the residual that go back to the pool when it ends. It
// returns the projected time to drain everything the plan can reach and
// whether that is all of the currently servable demand — a plan whose support
// misses servable entries (e.g. a base plan built while those ports were
// down) must not be preferred on cost alone.
func (rc *Recover) estimate(plan ocs.CircuitSchedule, s ocs.State) (int64, bool) {
	frozen := &faults.Schedule{}
	for p := 0; p < s.Remaining.N(); p++ {
		if !s.PortUp(p) {
			frozen.PortEvents = append(frozen.PortEvents, faults.PortEvent{Port: p, Down: true})
		}
	}
	rem := s.Remaining.AcquireClone()
	res, err := ocs.Core{Delta: rc.delta, Bandwidth: 1, Faults: frozen}.
		Run(rem, &ocs.Walk{Schedule: plan, Live: true})
	rem.Recycle()
	res.Residual.Recycle()
	return res.CCT, err == nil || errors.Is(err, ocs.ErrUnservable)
}
