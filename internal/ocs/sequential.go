package ocs

import (
	"fmt"

	"reco/internal/matrix"
	"reco/internal/schedule"
)

// SeqResult reports the outcome of executing several coflows' circuit
// schedules back-to-back on one switch.
type SeqResult struct {
	// CCTs[k] is the completion time of coflow k (arrivals are all at 0, so
	// waiting for earlier coflows counts toward the CCT).
	CCTs []int64
	// Reconfigs is the total number of reconfigurations performed.
	Reconfigs int
	// ConfTime and TransTime split the makespan as in Result.
	ConfTime, TransTime int64
	// Flows is the combined flow-level schedule with real coflow indices.
	Flows schedule.FlowSchedule
}

// validateOrder checks that order is a permutation of 0..n-1.
func validateOrder(order []int, n int) error {
	if len(order) != n {
		return fmt.Errorf("ocs: order has %d entries, want %d", len(order), n)
	}
	seen := make([]bool, n)
	for _, k := range order {
		if k < 0 || k >= n || seen[k] {
			return fmt.Errorf("ocs: order is not a permutation of coflows")
		}
		seen[k] = true
	}
	return nil
}

// Sequence hands the fabric to one of n coflows at a time in priority order:
// run(k, flows) executes coflow k on an empty timeline, appending its flows
// to flows, and Sequence shifts them behind everything already transmitted.
// bound(k) is the most flows coflow k can emit: Sequence reserves the sum
// once and hands each run the unused tail of that one list, so the flows land
// in place. A run that outgrows its bound still comes out right, at the cost
// of a copy. It is the single sequential loop behind ExecSequential and the
// K-core kcore.ExecSequential.
func Sequence(n int, order []int, bound func(k int) int, run func(k int, flows schedule.FlowSchedule) (Result, error)) (SeqResult, error) {
	if err := validateOrder(order, n); err != nil {
		return SeqResult{}, err
	}
	res := SeqResult{CCTs: make([]int64, n)}
	total := 0
	for _, k := range order {
		total += bound(k)
	}
	if total > 0 {
		res.Flows = make(schedule.FlowSchedule, 0, total)
	}
	var now int64
	for _, k := range order {
		at := len(res.Flows)
		r, err := run(k, res.Flows[at:])
		if err != nil {
			return SeqResult{}, fmt.Errorf("coflow %d: %w", k, err)
		}
		for i := range r.Flows {
			r.Flows[i].Start += now
			r.Flows[i].End += now
			r.Flows[i].Coflow = k
		}
		if len(r.Flows) > 0 && at < cap(res.Flows) && &r.Flows[0] == &res.Flows[at : at+1][0] {
			res.Flows = res.Flows[:at+len(r.Flows)]
		} else {
			res.Flows = append(res.Flows, r.Flows...)
		}
		now += r.CCT
		res.CCTs[k] = now
		res.Reconfigs += r.Reconfigs
		res.ConfTime += r.ConfTime
		res.TransTime += r.TransTime
	}
	return res, nil
}

// ExecSequential executes one circuit schedule per coflow, in the given
// priority order, under the all-stop model. This is how ordering-based
// baselines (SEBF+Solstice, LP-II-GB groups) realize multi-coflow scheduling
// in an OCS: the switch is handed over to one coflow at a time.
//
// order must be a permutation of the coflow indices; schedules[k] is the
// circuit schedule serving ds[k]. flows selects whether the result records
// the flow-level schedule; without it Flows is nil and nothing is reserved
// for it, while CCTs, Reconfigs and the time split are the same.
func ExecSequential(ds []*matrix.Matrix, schedules []CircuitSchedule, order []int, delta int64, flows bool) (SeqResult, error) {
	if len(ds) != len(schedules) {
		return SeqResult{}, fmt.Errorf("ocs: %d demand matrices but %d schedules", len(ds), len(schedules))
	}
	return Sequence(len(ds), order, func(k int) int {
		if !flows {
			return 0
		}
		return FlowBound(ds[k], schedules[k])
	}, func(k int, into schedule.FlowSchedule) (Result, error) {
		return Core{Delta: delta, Bandwidth: 1, Flows: flows}.exec(ds[k], schedules[k], into)
	})
}
