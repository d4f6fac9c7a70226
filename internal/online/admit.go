package online

import (
	"context"
	"fmt"
	"sort"

	"reco/internal/algo"
	"reco/internal/online/admission"
)

// EDF serves one pending coflow at a time, earliest deadline first —
// the classic companion to admission control: once the admitted set is
// EDF-feasible per port, serving in deadline order is the policy that
// meets the most deadlines. Coflows without deadlines queue behind every
// deadline-bearing coflow; ties break by smaller bottleneck, then index.
type EDF struct{}

// Name implements Policy.
func (EDF) Name() string { return "edf-" + algo.NameRecoSin }

// Pick implements Policy.
func (EDF) Pick(pending []int, arrivals []Arrival, _ int64) []int {
	best := pending[0]
	for _, k := range pending[1:] {
		if edfLess(arrivals, k, best) {
			best = k
		}
	}
	return []int{best}
}

func edfLess(arrivals []Arrival, a, b int) bool {
	da, db := arrivals[a].Deadline, arrivals[b].Deadline
	if da <= 0 {
		da = admission.NoDeadline
	}
	if db <= 0 {
		db = admission.NoDeadline
	}
	if da != db {
		return da < db
	}
	ra, rb := arrivals[a].Demand.MaxRowColSum(), arrivals[b].Demand.MaxRowColSum()
	if ra != rb {
		return ra < rb
	}
	return a < b
}

// Admitter decides, each time the controller dispatches, which pending
// coflows stay in the system and which are rejected for good.
type Admitter interface {
	// Name identifies the admitter in reports.
	Name() string
	// Admit partitions the pending indices into kept and shed sets. Shed
	// coflows are rejected permanently: they never re-enter the pending
	// set and record no CCT.
	Admit(pending []int, arrivals []Arrival, now int64) (keep, shed []int, err error)
}

// AdmitAll is the no-op admitter: everything is kept. SimulateAdmit with
// AdmitAll reproduces Simulate exactly.
type AdmitAll struct{}

// Name implements Admitter.
func (AdmitAll) Name() string { return "admit-all" }

// Admit implements Admitter.
func (AdmitAll) Admit(pending []int, _ []Arrival, _ int64) ([]int, []int, error) {
	return pending, nil, nil
}

// GreedyAdmit keeps the greedy weighted packing of the pending set under
// the per-port EDF deadline bound.
type GreedyAdmit struct{}

// Name implements Admitter.
func (GreedyAdmit) Name() string { return "greedy" }

// Admit implements Admitter.
func (GreedyAdmit) Admit(pending []int, arrivals []Arrival, now int64) ([]int, []int, error) {
	d, err := admission.Greedy(candidates(pending, arrivals, now))
	if err != nil {
		return nil, nil, fmt.Errorf("online: %w", err)
	}
	return split(pending, d)
}

// LPAdmit keeps the LP-selected maximal-weight admissible subset of the
// pending set, degrading to the greedy packing on LP failure or once the
// solve overruns admission.LPBudget.
type LPAdmit struct{}

// Name implements Admitter.
func (LPAdmit) Name() string { return "lp" }

// Admit implements Admitter.
func (LPAdmit) Admit(pending []int, arrivals []Arrival, now int64) ([]int, []int, error) {
	d, err := admission.Admit(context.Background(), candidates(pending, arrivals, now))
	if err != nil {
		return nil, nil, fmt.Errorf("online: %w", err)
	}
	return split(pending, d)
}

// candidates converts pending arrivals into admission candidates with
// remaining (relative) deadlines as of now.
func candidates(pending []int, arrivals []Arrival, now int64) []admission.Candidate {
	cands := make([]admission.Candidate, len(pending))
	for i, k := range pending {
		rem := int64(admission.NoDeadline)
		if d := arrivals[k].Deadline; d > 0 {
			rem = d - now
		}
		cands[i] = admission.NewCandidate(arrivals[k].Demand, rem, arrivals[k].Weight)
	}
	return cands
}

func split(pending []int, d *admission.Decision) ([]int, []int, error) {
	keep := make([]int, 0, len(d.Admitted))
	for _, i := range d.Admitted {
		keep = append(keep, pending[i])
	}
	shed := make([]int, 0, len(d.Rejected))
	for _, i := range d.Rejected {
		shed = append(shed, pending[i])
	}
	return keep, shed, nil
}

// AdmitResult reports an admission-controlled online simulation. The
// embedded Result covers served coflows only: a rejected coflow records a
// zero CCT and Rejected[k] == true.
type AdmitResult struct {
	Result
	// Admitter is the name of the admission policy.
	Admitter string
	// Rejected[k] reports whether arrival k was shed by admission.
	Rejected []bool
	// Missed[k] reports whether arrival k was served but finished after
	// its deadline. Rejected or deadline-free coflows never miss.
	Missed []bool
	// AdmittedWeight and TotalWeight sum effective weights (zero weight
	// counts as 1) over served coflows and all arrivals respectively.
	AdmittedWeight, TotalWeight float64

	hasDeadline []bool
}

// MissRate returns the fraction of served deadline-bearing coflows that
// finished late. It is 0 when nothing with a deadline was served.
func (r *AdmitResult) MissRate() float64 {
	served, missed := 0, 0
	for k := range r.Missed {
		if r.Rejected[k] || !r.hasDeadline[k] {
			continue
		}
		served++
		if r.Missed[k] {
			missed++
		}
	}
	if served == 0 {
		return 0
	}
	return float64(missed) / float64(served)
}

// SimulateAdmit runs the event-driven controller with an admission step in
// front of the policy: every time the switch frees up (or the first coflow
// arrives to an idle switch), the admitter partitions the pending set, shed
// coflows leave permanently, and the policy picks the next unit from the
// kept set.
func SimulateAdmit(arrivals []Arrival, adm Admitter, pol Policy, delta, c int64) (*AdmitResult, error) {
	if adm == nil {
		return nil, fmt.Errorf("%w: nil admitter", ErrBadInput)
	}
	if len(arrivals) == 0 {
		return nil, fmt.Errorf("%w: no arrivals", ErrBadInput)
	}
	if pol == nil {
		return nil, fmt.Errorf("%w: nil policy", ErrBadInput)
	}
	n := arrivals[0].Demand.N()
	for k, a := range arrivals {
		if a.Demand == nil || a.Demand.N() != n {
			return nil, fmt.Errorf("%w: arrival %d has bad demand", ErrBadInput, k)
		}
		if a.At < 0 {
			return nil, fmt.Errorf("%w: arrival %d at negative time %d", ErrBadInput, k, a.At)
		}
	}

	order := make([]int, len(arrivals))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return arrivals[order[a]].At < arrivals[order[b]].At })

	res := &AdmitResult{
		Result:      Result{Policy: pol.Name(), CCTs: make([]int64, len(arrivals))},
		Admitter:    adm.Name(),
		Rejected:    make([]bool, len(arrivals)),
		Missed:      make([]bool, len(arrivals)),
		hasDeadline: make([]bool, len(arrivals)),
	}
	for k, a := range arrivals {
		res.hasDeadline[k] = a.Deadline > 0
		w := a.Weight
		if w == 0 {
			w = 1
		}
		res.TotalWeight += w
	}
	decided := make([]bool, len(arrivals))
	nextArrival := 0
	var now int64
	remaining := len(arrivals)

	for remaining > 0 {
		var pending []int
		for nextArrival < len(order) && arrivals[order[nextArrival]].At <= now {
			nextArrival++
		}
		for _, k := range order[:nextArrival] {
			if !decided[k] {
				pending = append(pending, k)
			}
		}
		if len(pending) == 0 {
			now = arrivals[order[nextArrival]].At
			continue
		}

		keep, shed, err := adm.Admit(pending, arrivals, now)
		if err != nil {
			return nil, err
		}
		for _, k := range shed {
			res.Rejected[k] = true
			decided[k] = true
		}
		remaining -= len(shed)
		if len(keep) == 0 {
			continue
		}

		chosen := pol.Pick(keep, arrivals, now)
		if err := checkChoice(chosen, keep); err != nil {
			return nil, err
		}
		if err := serveUnit(&res.Result, arrivals, chosen, &now, delta, c); err != nil {
			return nil, err
		}
		for _, k := range chosen {
			decided[k] = true
			finish := arrivals[k].At + res.CCTs[k]
			if arrivals[k].Deadline > 0 && finish > arrivals[k].Deadline {
				res.Missed[k] = true
			}
			w := arrivals[k].Weight
			if w == 0 {
				w = 1
			}
			res.AdmittedWeight += w
		}
		remaining -= len(chosen)
		res.ServiceUnits++
	}
	res.Makespan = now
	return res, nil
}
