package kcore

import (
	"fmt"

	"reco/internal/matrix"
	"reco/internal/ocs"
	"reco/internal/schedule"
)

// KResult reports the outcome of running one coflow's split on a K-core
// fabric. Cores reconfigure and transmit independently and in parallel, all
// from tick 0; PerCore holds each core's independently-validatable result on
// that shared clock and the top-level fields fold them.
type KResult struct {
	// CCT is the fabric completion time: the slowest core's CCT.
	CCT int64
	// Reconfigs, ConfTime and TransTime sum across cores (cores reconfigure
	// concurrently, so ConfTime can exceed CCT at K > 1; at K = 1 TransTime
	// equals CCT − ConfTime).
	Reconfigs int
	ConfTime  int64
	TransTime int64
	// PerCore is each core's single-switch result.
	PerCore []ocs.Result
	// Flows merges every core's flow intervals in core order. At K > 1 a
	// port legitimately carries up to K concurrent flows (one transceiver
	// per core), so the merged schedule does not satisfy the single-switch
	// FlowSchedule.Validate port constraint; validate PerCore[c].Flows
	// against one core instead.
	Flows schedule.FlowSchedule
}

// fold is the K-core aggregate of per-core runs: the maximum CCT, the sum of
// everything else, and every core's flows appended to flows.
func fold(perCore []ocs.Result, flows schedule.FlowSchedule) KResult {
	kr := KResult{PerCore: perCore, Flows: flows}
	for _, r := range perCore {
		kr.CCT = max(kr.CCT, r.CCT)
		kr.Reconfigs += r.Reconfigs
		kr.ConfTime += r.ConfTime
		kr.TransTime += r.TransTime
		kr.Flows = append(kr.Flows, r.Flows...)
	}
	return kr
}

// check validates what every K-core run is handed: a usable fabric, and one
// demand share and one plan per core, every share of the same dimension. The
// plans' assignments are checked by the core that runs them.
func check(topo Topology, split []*matrix.Matrix, plans []ocs.CircuitSchedule) error {
	if err := topo.Validate(); err != nil {
		return err
	}
	if len(split) != topo.K() || len(plans) != topo.K() {
		return fmt.Errorf("%w: %d demand shares and %d plans for %d cores",
			ocs.ErrInvalidAssignment, len(split), len(plans), topo.K())
	}
	for c, share := range split {
		if share.N() != split[0].N() {
			return fmt.Errorf("%w: share %d has %d ports, share 0 has %d",
				ocs.ErrInvalidAssignment, c, share.N(), split[0].N())
		}
	}
	return nil
}

// Exec plays one circuit schedule per core against that core's share of a
// demand split (as produced by SplitGreedy or SplitRoundRobin), honoring
// each core's bandwidth and reconfiguration delay: each core is the
// single-switch executor at its own rate, so at K = 1 with a unit-bandwidth
// core PerCore[0] is ocs.ExecAllStop(split[0], plans[0], delta).
func Exec(topo Topology, split []*matrix.Matrix, plans []ocs.CircuitSchedule) (KResult, error) {
	return exec(topo, split, plans, nil, true)
}

// exec is Exec folding the cores' flows into flows; without keep no core
// records any.
func exec(topo Topology, split []*matrix.Matrix, plans []ocs.CircuitSchedule, flows schedule.FlowSchedule, keep bool) (KResult, error) {
	if err := check(topo, split, plans); err != nil {
		return KResult{}, err
	}
	perCore := make([]ocs.Result, topo.K())
	for c, cr := range topo.Cores {
		var err error
		if perCore[c], err = (ocs.Core{Delta: cr.Delta, Bandwidth: cr.Bandwidth, Flows: keep}).Exec(split[c], plans[c]); err != nil {
			return fold(perCore[:c], flows), fmt.Errorf("core %d: %w", c, err)
		}
	}
	return fold(perCore, flows), nil
}

// ExecSequential executes one K-core plan per coflow, in the given priority
// order: the whole fabric is handed to one coflow at a time, exactly like
// ocs.ExecSequential, but each coflow transmits its split across all K cores
// in parallel. splits[k] and plans[k] are coflow k's demand split and
// per-core schedules. flows selects whether the result records the
// flow-level schedule, as it does for ocs.ExecSequential.
func ExecSequential(topo Topology, splits [][]*matrix.Matrix, plans [][]ocs.CircuitSchedule, order []int, flows bool) (ocs.SeqResult, error) {
	if len(splits) != len(plans) {
		return ocs.SeqResult{}, fmt.Errorf("kcore: %d demand splits but %d plans", len(splits), len(plans))
	}
	return ocs.Sequence(len(splits), order, func(k int) int {
		if !flows {
			return 0
		}
		most := 0
		for c := range min(len(splits[k]), len(plans[k])) {
			most += ocs.FlowBound(splits[k][c], plans[k][c])
		}
		return most
	}, func(k int, into schedule.FlowSchedule) (ocs.Result, error) {
		kr, err := exec(topo, splits[k], plans[k], into, flows)
		return ocs.Result{
			CCT: kr.CCT, Reconfigs: kr.Reconfigs, ConfTime: kr.ConfTime, TransTime: kr.TransTime, Flows: kr.Flows,
		}, err
	})
}
