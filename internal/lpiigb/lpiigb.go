// Package lpiigb implements the LP-II-GB multi-coflow baseline of Qiu,
// Stein and Zhong (SPAA 2015): an interval-indexed LP relaxation estimates
// each coflow's completion time and the coflows are then served in estimate
// order by primitive (first-fit) Birkhoff–von Neumann circuit schedules,
// built by tms.ScheduleBvN, the Traffic Matrix Scheduling baseline.
//
// Two service disciplines are provided. ScheduleSequentialCtx is the
// baseline exactly as the paper evaluates it ("it determines the scheduling
// order of the coflows; for single coflow scheduling, they adopt the BvN
// method"): one coflow at a time, each with its own stuffed BvN schedule.
// ScheduleCtx is the original Qiu–Stein–Zhong grouped construction: coflows
// whose estimates share a geometric interval are merged into one aggregate
// matrix served by a single BvN schedule, groups running back-to-back.
package lpiigb

import (
	"context"
	"fmt"
	"sort"

	"reco/internal/matrix"
	"reco/internal/ocs"
	"reco/internal/ordering"
	"reco/internal/schedule"
	"reco/internal/tms"
)

// Result reports an LP-II-GB run.
type Result struct {
	// CCTs[k] is the completion time of coflow k: the instant its group's
	// aggregate schedule drains (group members complete together).
	CCTs []int64
	// Reconfigs, ConfTime and TransTime aggregate over all groups.
	Reconfigs           int
	ConfTime, TransTime int64
	// Flows is the flow-level schedule with per-coflow attribution, obtained
	// by splitting each aggregate circuit interval across the group members'
	// demands in coflow order.
	Flows schedule.FlowSchedule
	// Groups lists the coflow indices of each group in service order.
	Groups [][]int
}

// ScheduleSequentialCtx runs the paper's LP-II-GB baseline: coflows are
// served one at a time in LP-estimate order, each by a first-fit BvN circuit
// schedule of its stuffed demand matrix, under the all-stop OCS model with
// reconfiguration delay delta. A nil w means unit weights. flows selects
// whether the result records the flow-level schedule; without it Flows is
// nil and everything else is the same. The LP solve and the per-coflow BvN
// decompositions poll ctx and abort with ctx.Err() once it is cancelled.
func ScheduleSequentialCtx(ctx context.Context, ds []*matrix.Matrix, w []float64, delta int64, flows bool) (*Result, error) {
	if len(ds) == 0 {
		return nil, fmt.Errorf("lpiigb: no coflows")
	}
	lpRes, err := ordering.LPIICtx(ctx, ds, w)
	if err != nil {
		return nil, fmt.Errorf("lpiigb: %w", err)
	}
	schedules := make([]ocs.CircuitSchedule, len(ds))
	for k, d := range ds {
		cs, err := tms.ScheduleBvN(ctx, d)
		if err != nil {
			return nil, fmt.Errorf("lpiigb: coflow %d: %w", k, err)
		}
		schedules[k] = cs
	}
	seq, err := ocs.ExecSequential(ds, schedules, lpRes.Order, delta, flows)
	if err != nil {
		return nil, fmt.Errorf("lpiigb: %w", err)
	}
	res := &Result{
		CCTs:      seq.CCTs,
		Reconfigs: seq.Reconfigs,
		ConfTime:  seq.ConfTime,
		TransTime: seq.TransTime,
		Flows:     seq.Flows,
	}
	for _, k := range lpRes.Order {
		res.Groups = append(res.Groups, []int{k})
	}
	return res, nil
}

// ScheduleCtx runs the grouped LP-II-GB construction on the given coflows
// under the all-stop OCS model with reconfiguration delay delta. A nil w
// means unit weights; flows is as for ScheduleSequentialCtx. The LP solve
// and the per-group BvN decompositions poll ctx and abort with ctx.Err()
// once it is cancelled.
func ScheduleCtx(ctx context.Context, ds []*matrix.Matrix, w []float64, delta int64, flows bool) (*Result, error) {
	if len(ds) == 0 {
		return nil, fmt.Errorf("lpiigb: no coflows")
	}
	n := ds[0].N()
	lpRes, err := ordering.LPIICtx(ctx, ds, w)
	if err != nil {
		return nil, fmt.Errorf("lpiigb: %w", err)
	}

	// Bucket coflows into groups by LP interval, served in interval order.
	byGroup := make(map[int][]int)
	for _, k := range lpRes.Order {
		g := lpRes.Group[k]
		byGroup[g] = append(byGroup[g], k)
	}
	groupIDs := make([]int, 0, len(byGroup))
	for g := range byGroup {
		groupIDs = append(groupIDs, g)
	}
	sort.Ints(groupIDs)

	res := &Result{CCTs: make([]int64, len(ds))}
	var now int64
	for _, g := range groupIDs {
		members := byGroup[g]
		res.Groups = append(res.Groups, members)
		mats := make([]*matrix.Matrix, len(members))
		for i, k := range members {
			mats[i] = ds[k]
		}
		agg, err := matrix.Sum(mats)
		if err != nil {
			return nil, fmt.Errorf("lpiigb: group %d: %w", g, err)
		}
		if agg.IsZero() {
			for _, k := range members {
				res.CCTs[k] = now
			}
			continue
		}
		cs, err := tms.ScheduleBvN(ctx, agg)
		if err != nil {
			return nil, fmt.Errorf("lpiigb: group %d: %w", g, err)
		}
		exec, err := ocs.Core{Delta: delta, Bandwidth: 1, Flows: flows}.Exec(agg, cs)
		if err != nil {
			return nil, fmt.Errorf("lpiigb: group %d: %w", g, err)
		}
		if flows {
			split, err := attribute(exec.Flows, members, mats, n, now)
			if err != nil {
				return nil, fmt.Errorf("lpiigb: group %d: %w", g, err)
			}
			res.Flows = append(res.Flows, split...)
		}
		now += exec.CCT
		for _, k := range members {
			res.CCTs[k] = now
		}
		res.Reconfigs += exec.Reconfigs
		res.ConfTime += exec.ConfTime
		res.TransTime += exec.TransTime
	}
	return res, nil
}

// attribute splits aggregate circuit intervals across the group's member
// coflows: each pair's transmission is handed to members in group order
// until their demand on that pair is covered. The aggregate executor
// transmits exactly the summed demand per pair, so the split is exact.
func attribute(flows schedule.FlowSchedule, members []int, mats []*matrix.Matrix, n int, offset int64) (schedule.FlowSchedule, error) {
	rem := make([]*matrix.Matrix, len(mats))
	for i, m := range mats {
		rem[i] = m.Clone()
	}
	// Process intervals in time order so attribution is FIFO per pair.
	sorted := make(schedule.FlowSchedule, len(flows))
	copy(sorted, flows)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Start < sorted[b].Start })

	var out schedule.FlowSchedule
	for _, f := range sorted {
		left := f.Transmitted()
		cursor := f.Start
		for mi := 0; mi < len(members) && left > 0; mi++ {
			r := rem[mi].At(f.In, f.Out)
			if r == 0 {
				continue
			}
			take := r
			if left < take {
				take = left
			}
			rem[mi].Set(f.In, f.Out, r-take)
			out = append(out, schedule.FlowInterval{
				Start: offset + cursor, End: offset + cursor + take,
				In: f.In, Out: f.Out, Coflow: members[mi],
			})
			cursor += take
			left -= take
		}
		if left > 0 {
			return nil, fmt.Errorf("lpiigb: %d unattributed ticks on pair (%d,%d)", left, f.In, f.Out)
		}
	}
	for mi, m := range rem {
		if !m.IsZero() {
			return nil, fmt.Errorf("lpiigb: coflow %d demand not fully served", members[mi])
		}
	}
	return out, nil
}
