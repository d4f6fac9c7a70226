package sim

import (
	"reco/internal/algo"
	"reco/internal/matching"
	"reco/internal/matrix"
	"reco/internal/ocs"
)

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

// GreedyBottleneck is a reactive controller: each time the switch idles, it
// establishes the bottleneck-optimal (max–min) perfect matching of the
// stuffed remaining demand and holds it until its first drain. It is the
// closed-loop analogue of the BvN-based schedulers: no schedule is computed
// in advance, decisions use only observed state.
type GreedyBottleneck struct{}

// Name names the policy in recosim's output.
func (g GreedyBottleneck) Name() string { return "greedy-bottleneck" }

// Next implements ocs.Controller.
func (g GreedyBottleneck) Next(s ocs.State) ocs.Decision {
	if s.Remaining.IsZero() {
		return ocs.Decision{}
	}
	stuffed := matrix.StuffPreferNonZero(s.Remaining.Clone())
	perm, _, err := matching.BottleneckPerfect(stuffed)
	if err != nil {
		return ocs.Decision{}
	}
	// Drop circuits with no real demand; keep the rest up until the first
	// real drain (budget 0 would run to the max, holding ports pointlessly
	// is harmless but budgeting to the min reacts faster).
	held := make([]int, len(perm))
	var minRem int64 = -1
	for i, j := range perm {
		held[i] = -1
		if s.Remaining.At(i, j) > 0 {
			held[i] = j
			if r := s.Remaining.At(i, j); minRem == -1 || r < minRem {
				minRem = r
			}
		}
	}
	if minRem == -1 {
		return ocs.Decision{}
	}
	return ocs.Decision{Perm: held, Budget: minRem}
}

// GreedyMaxWeight is the Helios/c-Through reactive policy: establish the
// maximum-weight matching of the remaining demand and hold it for a fixed
// slot.
type GreedyMaxWeight struct {
	// Slot is the hold duration per establishment; it must be positive.
	Slot int64
}

// Name names the policy: the slotted max-weight policy is the closed-loop
// counterpart of the registered Helios scheduler.
func (g GreedyMaxWeight) Name() string { return algo.NameHelios + "-slotted" }

// Next implements ocs.Controller.
func (g GreedyMaxWeight) Next(s ocs.State) ocs.Decision {
	if s.Remaining.IsZero() || g.Slot <= 0 {
		return ocs.Decision{}
	}
	perm, weight := matching.MaxWeightPerfect(s.Remaining.Clone())
	if weight == 0 {
		return ocs.Decision{}
	}
	held := make([]int, len(perm))
	for i, j := range perm {
		held[i] = -1
		if s.Remaining.At(i, j) > 0 {
			held[i] = j
		}
	}
	return ocs.Decision{Perm: held, Budget: g.Slot}
}
