// Package admission decides which deadline-bearing coflows a scheduler
// should accept before it decides how to serve them — the Sincronia-style
// online admission step (SNIPPETS.md #1) generalized to per-candidate
// deadlines. Each candidate exposes its per-port loads, a remaining
// deadline in ticks, and a weight; Admit solves a fractional LP that
// maximizes admitted weight subject to every port being able to drain the
// admitted load within its deadlines, rounds the solution, repairs it to
// integral feasibility, and falls back to (and never does worse than) a
// greedy weighted packing when the LP is infeasible, oversized, or runs out
// of time.
//
// The feasibility condition is the per-port EDF (earliest-deadline-first)
// bound for a fluid server of unit rate — demand is in ticks of
// transmission time, so a port drains one tick of load per tick: for every
// port p and every deadline d, the total load on p of admitted candidates
// with deadline at most d must be at most d. It ignores reconfiguration
// delay and circuit integrality, so it is a necessary condition —
// optimistic by δ per establishment — which is exactly the role it plays
// in Sincronia: a cheap screen that sheds work the fabric provably cannot
// finish in time.
package admission

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"reco/internal/lp"
	"reco/internal/matrix"
	"reco/internal/obs"
)

// NoDeadline marks a candidate with no deadline: it joins no port
// constraint and is always admissible.
const NoDeadline = int64(math.MaxInt64)

// ErrBadInput reports an unusable candidate set.
var ErrBadInput = errors.New("admission: invalid input")

// Candidate is one coflow (or request) competing for admission.
type Candidate struct {
	// In[p] / Out[p] are the candidate's ingress/egress loads per port in
	// ticks of transmission — typically the demand matrix's row and column
	// sums. The two slices may have different lengths across candidates;
	// missing ports carry zero load.
	In, Out []int64
	// Deadline is the remaining time budget in ticks. NoDeadline means
	// unconstrained; a non-positive deadline with positive load is already
	// hopeless and is always rejected.
	Deadline int64
	// Weight is the value of admitting this candidate. Zero means 1;
	// negative is invalid.
	Weight float64
}

// NewCandidate builds a Candidate from a demand matrix.
func NewCandidate(d *matrix.Matrix, deadline int64, weight float64) Candidate {
	return Candidate{In: d.RowSums(), Out: d.ColSums(), Deadline: deadline, Weight: weight}
}

// load returns the candidate's total demand.
func (c Candidate) load() int64 {
	var t int64
	for _, v := range c.In {
		t += v
	}
	return t
}

// weight returns the effective weight (zero defaults to 1).
func (c Candidate) weight() float64 {
	if c.Weight == 0 {
		return 1
	}
	return c.Weight
}

// MaxLPCandidates bounds the LP's variable count; larger candidate sets go
// straight to the greedy packing.
const MaxLPCandidates = 256

// MaxDeadlineBuckets bounds the number of distinct deadlines the LP
// constrains (each distinct deadline adds up to 2·ports rows). Beyond it,
// deadlines are conservatively rounded down onto that many bucket
// boundaries, which keeps the LP small and only ever tightens the
// constraints.
const MaxDeadlineBuckets = 8

// LPBudget bounds the wall-clock time of Admit's LP solve; past it the
// decision degrades to the greedy packing.
const LPBudget = 50 * time.Millisecond

// Decision is the accept/reject partition of a candidate set.
type Decision struct {
	// Admitted and Rejected are sorted candidate indices; together they
	// cover the input exactly.
	Admitted, Rejected []int
	// AdmittedWeight and TotalWeight are the effective weights of the
	// admitted set and the whole input.
	AdmittedWeight, TotalWeight float64
	// Source reports which construction produced the admitted set: "lp"
	// (the rounded and repaired LP solution) or "greedy" (the weighted
	// packing — either the LP fell back, or the greedy set was heavier).
	Source string
	// LPObjective is the fractional optimum's admitted weight — an upper
	// bound on any integral admission — when the LP solved; NaN otherwise.
	LPObjective float64
}

// IsAdmitted reports whether candidate i is in the admitted set.
func (d *Decision) IsAdmitted(i int) bool {
	j := sort.SearchInts(d.Admitted, i)
	return j < len(d.Admitted) && d.Admitted[j] == i
}

// Admit partitions cands into admitted and rejected candidates, maximizing
// admitted weight under the per-port deadline constraints. It solves the
// fractional LP for at most LPBudget (ctx can end it sooner), rounds
// variables at 1/2, repairs the rounded set to integral
// feasibility by shedding in ShedOrder, and compares against the greedy
// packing — the returned set is never lighter than greedy's. Any LP
// failure (cancellation, iteration limit, oversized input) degrades to the
// greedy result alone.
func Admit(ctx context.Context, cands []Candidate) (*Decision, error) {
	if err := validate(cands); err != nil {
		return nil, err
	}
	start := time.Now()
	defer func() {
		obs.Current().ObserveDuration("admission_decision_seconds", time.Since(start))
	}()

	greedy := greedySet(cands)
	best, source := greedy, "greedy"
	lpObj := math.NaN()
	if len(cands) <= MaxLPCandidates {
		ctx, cancel := context.WithTimeout(ctx, LPBudget)
		defer cancel()
		lpSet, obj, err := lpSet(ctx, cands)
		if err != nil {
			obs.Current().Inc("admission_lp_fallback_total")
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				// The caller's budget expired: greedy is the decision.
				err = nil
			}
			if err != nil && !errors.Is(err, lp.ErrIterationLimit) && !errors.Is(err, lp.ErrInfeasible) {
				return nil, fmt.Errorf("admission: %w", err)
			}
		} else {
			lpObj = obj
			if setWeight(cands, lpSet) >= setWeight(cands, greedy) {
				best, source = lpSet, "lp"
			}
		}
	} else {
		obs.Current().Inc("admission_lp_fallback_total")
	}

	d := newDecision(cands, best, source)
	d.LPObjective = lpObj
	obs.Current().Inc(obs.L("admission_decisions_total", "source", source))
	obs.Current().Count("admission_candidates_admitted_total", int64(len(d.Admitted)))
	obs.Current().Count("admission_candidates_rejected_total", int64(len(d.Rejected)))
	return d, nil
}

// Greedy is the weighted packing alone: candidates are considered in
// admission priority order — weight descending, then tightest deadline
// first — and admitted whenever the set stays feasible. It is the
// deterministic fallback Admit degrades to and is exported for callers
// (and experiments) that want it explicitly.
func Greedy(cands []Candidate) (*Decision, error) {
	if err := validate(cands); err != nil {
		return nil, err
	}
	d := newDecision(cands, greedySet(cands), "greedy")
	d.LPObjective = math.NaN()
	return d, nil
}

func validate(cands []Candidate) error {
	if len(cands) == 0 {
		return fmt.Errorf("%w: no candidates", ErrBadInput)
	}
	for i, c := range cands {
		if c.Weight < 0 {
			return fmt.Errorf("%w: candidate %d has negative weight", ErrBadInput, i)
		}
		for _, v := range c.In {
			if v < 0 {
				return fmt.Errorf("%w: candidate %d has negative ingress load", ErrBadInput, i)
			}
		}
		for _, v := range c.Out {
			if v < 0 {
				return fmt.Errorf("%w: candidate %d has negative egress load", ErrBadInput, i)
			}
		}
	}
	return nil
}

func newDecision(cands []Candidate, admitted []int, source string) *Decision {
	in := make([]bool, len(cands))
	for _, i := range admitted {
		in[i] = true
	}
	d := &Decision{
		Admitted: append([]int(nil), admitted...),
		Source:   source,
	}
	sort.Ints(d.Admitted)
	for i, c := range cands {
		d.TotalWeight += c.weight()
		if in[i] {
			d.AdmittedWeight += c.weight()
		} else {
			d.Rejected = append(d.Rejected, i)
		}
	}
	return d
}

func setWeight(cands []Candidate, set []int) float64 {
	var w float64
	for _, i := range set {
		w += cands[i].weight()
	}
	return w
}

// admissible reports whether candidate i can ever be admitted on its own:
// hopeless candidates (expired deadline with positive load, or a deadline
// too short for their own load) are screened out before any packing.
func admissible(c Candidate) bool {
	if c.Deadline == NoDeadline {
		return true
	}
	if c.Deadline <= 0 {
		return c.load() == 0
	}
	for _, v := range c.In {
		if v > c.Deadline {
			return false
		}
	}
	for _, v := range c.Out {
		if v > c.Deadline {
			return false
		}
	}
	return true
}

// Feasible reports whether the candidate subset passes the per-port EDF
// bound: for every port and every deadline d among the set, the load of
// set members with deadline ≤ d is at most d. Candidates with NoDeadline
// never constrain. The sums are exact: no load is rounded and none
// overflows.
func Feasible(cands []Candidate, set []int) bool {
	type member struct {
		deadline int64
		c        *Candidate
	}
	members := make([]member, 0, len(set))
	for _, i := range set {
		c := &cands[i]
		if c.Deadline == NoDeadline {
			continue
		}
		members = append(members, member{c.Deadline, c})
	}
	if len(members) == 0 {
		return true
	}
	sort.Slice(members, func(a, b int) bool { return members[a].deadline < members[b].deadline })
	ports := 0
	for _, m := range members {
		if len(m.c.In) > ports {
			ports = len(m.c.In)
		}
		if len(m.c.Out) > ports {
			ports = len(m.c.Out)
		}
	}
	// acc holds the ingress then egress cumulative load. Each addition is
	// checked before it is made, so acc stays within [0, max(d, 0)] and
	// d − acc cannot overflow.
	acc := make([]int64, 2*ports)
	add := func(p int, v, d int64) bool {
		if v > d-acc[p] {
			return false
		}
		acc[p] += v
		return true
	}
	for _, m := range members {
		for p, v := range m.c.In {
			if !add(p, v, m.deadline) {
				return false
			}
		}
		for p, v := range m.c.Out {
			if !add(ports+p, v, m.deadline) {
				return false
			}
		}
	}
	return true
}

// ShedOrder returns the indices of set ordered by shed priority: the first
// entry is the first candidate to drop under overload — lowest weight
// first, then loosest (largest) deadline, then highest index (newest work
// sheds before older work at equal value). This single ordering is the
// repository's shedding policy; the LP repair loop and recod's job queue
// both shed through it.
func ShedOrder(cands []Candidate, set []int) []int {
	out := append([]int(nil), set...)
	sort.Slice(out, func(a, b int) bool {
		ca, cb := cands[out[a]], cands[out[b]]
		if ca.weight() != cb.weight() {
			return ca.weight() < cb.weight()
		}
		if ca.Deadline != cb.Deadline {
			return ca.Deadline > cb.Deadline
		}
		return out[a] > out[b]
	})
	return out
}

// greedySet packs candidates in admission priority order (weight
// descending, deadline ascending, index ascending), keeping the set
// feasible at every step.
func greedySet(cands []Candidate) []int {
	order := make([]int, 0, len(cands))
	for i, c := range cands {
		if admissible(c) {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		ca, cb := cands[order[a]], cands[order[b]]
		if ca.weight() != cb.weight() {
			return ca.weight() > cb.weight()
		}
		if ca.Deadline != cb.Deadline {
			return ca.Deadline < cb.Deadline
		}
		return order[a] < order[b]
	})
	set := make([]int, 0, len(order))
	for _, i := range order {
		set = append(set, i)
		if !Feasible(cands, set) {
			set = set[:len(set)-1]
		}
	}
	return set
}

// lpSet solves the fractional admission LP and returns the rounded,
// feasibility-repaired admitted set plus the fractional optimum weight.
//
// Variables: x_i ∈ [0,1] per admissible candidate. Objective: maximize
// Σ w_i·x_i (minimize the negation). Constraints: for every port p and
// every (bucketed) deadline d, Σ_{i: d_i ≤ d} load_i(p)·x_i ≤ d.
// Deadlines are conservatively rounded down onto at most
// MaxDeadlineBuckets boundaries before constraint generation, so a set
// feasible under the bucketed deadlines is feasible under the true ones.
func lpSet(ctx context.Context, cands []Candidate) ([]int, float64, error) {
	// Pool of LP participants: admissible candidates. Unconstrained
	// (NoDeadline) candidates with positive weight are trivially admitted
	// and stay out of the LP.
	var vars []int
	var free []int
	for i, c := range cands {
		switch {
		case !admissible(c):
		case c.Deadline == NoDeadline || c.load() == 0:
			free = append(free, i)
		default:
			vars = append(vars, i)
		}
	}
	if len(vars) == 0 {
		return free, setWeight(cands, free), nil
	}

	bucketOf := bucketDeadlines(cands, vars)
	prob := lp.NewProblem()
	col := make(map[int]int, len(vars)) // candidate index -> variable column
	for _, i := range vars {
		col[i] = prob.AddVariable(-cands[i].weight())
	}
	for _, i := range vars {
		if err := prob.AddConstraint(map[int]float64{col[i]: 1}, lp.LE, 1); err != nil {
			return nil, 0, err
		}
	}

	// One constraint per (port side, port, bucket deadline) with any load.
	ports := 0
	for _, i := range vars {
		if len(cands[i].In) > ports {
			ports = len(cands[i].In)
		}
		if len(cands[i].Out) > ports {
			ports = len(cands[i].Out)
		}
	}
	deadlines := distinctSorted(bucketOf, vars)
	for _, d := range deadlines {
		for side := 0; side < 2; side++ {
			for p := 0; p < ports; p++ {
				terms := map[int]float64{}
				for _, i := range vars {
					if bucketOf[i] > d {
						continue
					}
					loads := cands[i].In
					if side == 1 {
						loads = cands[i].Out
					}
					if p < len(loads) && loads[p] > 0 {
						terms[col[i]] = float64(loads[p])
					}
				}
				if len(terms) == 0 {
					continue
				}
				if err := prob.AddConstraint(terms, lp.LE, float64(d)); err != nil {
					return nil, 0, err
				}
			}
		}
	}

	sol, err := prob.SolveCtx(ctx)
	if err != nil {
		return nil, 0, err
	}
	// Round at 1/2 (Sincronia's rule), then repair the integral set: the
	// rounded-up halves can overpack a port, so shed in ShedOrder until
	// the true (un-bucketed) EDF bound holds again.
	set := append([]int(nil), free...)
	for _, i := range vars {
		if sol.X[col[i]] >= 0.5 {
			set = append(set, i)
		}
	}
	for !Feasible(cands, set) {
		victim := ShedOrder(cands, set)[0]
		kept := set[:0]
		for _, i := range set {
			if i != victim {
				kept = append(kept, i)
			}
		}
		set = kept
	}
	return set, setWeight(cands, free) - sol.Objective, nil
}

// bucketDeadlines maps each candidate's deadline onto at most
// MaxDeadlineBuckets distinct values, rounding down (never up) so the LP
// only tightens.
func bucketDeadlines(cands []Candidate, vars []int) map[int]int64 {
	distinct := map[int64]bool{}
	for _, i := range vars {
		distinct[cands[i].Deadline] = true
	}
	out := make(map[int]int64, len(vars))
	if len(distinct) <= MaxDeadlineBuckets {
		for _, i := range vars {
			out[i] = cands[i].Deadline
		}
		return out
	}
	sorted := make([]int64, 0, len(distinct))
	for d := range distinct {
		sorted = append(sorted, d)
	}
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	// Pick MaxDeadlineBuckets boundaries spread over the sorted distinct
	// deadlines (always keeping the smallest), then floor every deadline to
	// the nearest boundary at or below it.
	bounds := make([]int64, 0, MaxDeadlineBuckets)
	for k := 0; k < MaxDeadlineBuckets; k++ {
		bounds = append(bounds, sorted[k*len(sorted)/MaxDeadlineBuckets])
	}
	for _, i := range vars {
		d := cands[i].Deadline
		b := bounds[0]
		for _, bound := range bounds {
			if bound <= d {
				b = bound
			}
		}
		out[i] = b
	}
	return out
}

func distinctSorted(bucketOf map[int]int64, vars []int) []int64 {
	seen := map[int64]bool{}
	var out []int64
	for _, i := range vars {
		if d := bucketOf[i]; !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}
