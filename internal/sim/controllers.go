package sim

import "reco/internal/ocs"

// Replay is an ocs.Controller that plays back a precomputed circuit schedule,
// skipping establishments whose circuits have already drained: the walk the
// analytic executors run, under a name.
type Replay struct{ ocs.Walk }

// NewReplay returns a Replay controller over cs.
func NewReplay(cs ocs.CircuitSchedule) *Replay {
	return &Replay{ocs.Walk{Schedule: cs}}
}

// Name names the policy in recosim's output.
func (r *Replay) Name() string { return "replay" }

// ReplayLoop is the naive recovery baseline: it plays the precomputed
// schedule like Replay, but cycles back to the top as long as demand
// remains, blindly re-establishing assignments whose circuits have not
// drained — including circuits stranded on failed ports, where each attempt
// burns a reconfiguration delay and carries nothing. It never replans, and
// stops when a full cycle finds nothing undrained.
type ReplayLoop struct{ ocs.Walk }

// NewReplayLoop returns a ReplayLoop controller over cs.
func NewReplayLoop(cs ocs.CircuitSchedule) *ReplayLoop {
	return &ReplayLoop{ocs.Walk{Schedule: cs, Loop: true}}
}

// Name names the policy in recosim's output.
func (r *ReplayLoop) Name() string { return "replay-loop" }
