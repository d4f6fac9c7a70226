// Package sunflow implements the Sunflow baseline (Huang, Sun, Ng —
// CoNEXT 2016), the prior work on coflow scheduling in optical circuit
// switches that the paper compares against in Table III/IV: one circuit per
// flow, held non-preemptively until the flow completes, under the
// not-all-stop model where a circuit setup stalls only the two ports
// involved.
package sunflow

import (
	"context"
	"fmt"

	"reco/internal/matrix"
	"reco/internal/radix"
	"reco/internal/schedule"
)

// Result reports a Sunflow run.
type Result struct {
	// CCT is the coflow completion time.
	CCT int64
	// Establishments is the number of circuit setups (one per flow).
	Establishments int
	// ConfTime is the total per-port stall time spent on setups; under
	// not-all-stop, setups on disjoint ports overlap, so CCT is not
	// TransTime+ConfTime.
	ConfTime int64
	// Flows is the resulting flow-level schedule.
	Flows schedule.FlowSchedule
}

// ctxStride is how many flows Schedule places between two polls of its
// context.
const ctxStride = 1024

// Schedule runs Sunflow's one-circuit-per-flow scheduling of a single
// coflow: flows are taken longest-first; each claims the earliest instant
// both of its ports are free, pays the setup delay delta on those two ports,
// and holds the circuit until its demand drains. It checks ctx once the
// flows are sorted and every ctxStride flows while placing them, and
// returns ctx.Err() once cancelled.
func Schedule(ctx context.Context, d *matrix.Matrix, delta int64) (*Result, error) {
	if delta < 0 {
		return nil, fmt.Errorf("sunflow: negative delta %d", delta)
	}
	n := d.N()
	type flow struct {
		i, j int
		dur  int64
	}
	var flows []flow
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if v := d.At(i, j); v > 0 {
				flows = append(flows, flow{i, j, v})
			}
		}
	}
	if len(flows) == 0 {
		return &Result{}, nil
	}
	// Longest-first, ties by (i, j): the flows were collected in (i, j)
	// order and the sort is stable. Sunflow's LPT rule keeps bottleneck
	// ports busy and is the source of its 2-approximation in the
	// not-all-stop model.
	radix.Sort(flows, func(f flow) uint64 { return radix.Desc(f.dur) })

	freeIn := make([]int64, n)
	freeOut := make([]int64, n)
	res := &Result{Flows: make(schedule.FlowSchedule, 0, len(flows))}
	for k, f := range flows {
		if k%ctxStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		start := freeIn[f.i]
		if freeOut[f.j] > start {
			start = freeOut[f.j]
		}
		start += delta // circuit setup stalls only these two ports
		end := start + f.dur
		freeIn[f.i] = end
		freeOut[f.j] = end
		res.Flows = append(res.Flows, schedule.FlowInterval{
			Start: start, End: end, In: f.i, Out: f.j, Coflow: 0,
		})
		res.Establishments++
		res.ConfTime += delta
		if end > res.CCT {
			res.CCT = end
		}
	}
	return res, nil
}
