// Package online extends the paper's offline model with coflow arrivals —
// the future direction its conclusion names ("derive online coflow
// scheduling schemes for OCS-based networks"). Coflows become known only
// when they arrive; an event-driven controller decides, whenever the switch
// frees up, which pending coflows to serve next and schedules them with the
// registry's offline rows (reco-sin for one coflow, reco-mul for a batch).
package online

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"reco/internal/algo"
	_ "reco/internal/algo/builtin" // the reco-sin and reco-mul rows
	"reco/internal/matrix"
)

// ErrBadInput reports an unusable arrival sequence or policy decision.
var ErrBadInput = errors.New("online: invalid input")

// Arrival is one coflow arriving at time At (ticks). Deadline, when
// positive, is the absolute tick by which the coflow should complete;
// zero means no deadline. Only EDF and the admission controllers look at
// it — the original policies ignore deadlines entirely.
type Arrival struct {
	Demand   *matrix.Matrix
	At       int64
	Weight   float64
	Deadline int64
}

// Policy decides which pending coflows the switch serves next.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Pick returns a non-empty subset of the pending indices to serve as
	// the next service unit. Indices refer to the arrivals slice.
	Pick(pending []int, arrivals []Arrival, now int64) []int
}

// FIFO serves pending coflows one at a time in arrival order.
type FIFO struct{}

// Name implements Policy.
func (FIFO) Name() string { return "fifo-" + algo.NameRecoSin }

// Pick implements Policy.
func (FIFO) Pick(pending []int, arrivals []Arrival, _ int64) []int {
	best := pending[0]
	for _, k := range pending[1:] {
		if arrivals[k].At < arrivals[best].At || (arrivals[k].At == arrivals[best].At && k < best) {
			best = k
		}
	}
	return []int{best}
}

// SEBF serves one pending coflow at a time, smallest effective bottleneck
// first — the online analogue of Varys' heuristic.
type SEBF struct{}

// Name implements Policy.
func (SEBF) Name() string { return "sebf-" + algo.NameRecoSin }

// Pick implements Policy.
func (SEBF) Pick(pending []int, arrivals []Arrival, _ int64) []int {
	best := pending[0]
	bestRho := arrivals[best].Demand.MaxRowColSum()
	for _, k := range pending[1:] {
		rho := arrivals[k].Demand.MaxRowColSum()
		if rho < bestRho || (rho == bestRho && k < best) {
			best = k
			bestRho = rho
		}
	}
	return []int{best}
}

// Batch serves all pending coflows together through the Reco-Mul pipeline —
// amortizing reconfigurations across the batch at the cost of head-of-line
// batching delay.
type Batch struct{}

// Name implements Policy.
func (Batch) Name() string { return "batch-" + algo.NameRecoMul }

// Pick implements Policy.
func (Batch) Pick(pending []int, _ []Arrival, _ int64) []int {
	out := make([]int, len(pending))
	copy(out, pending)
	sort.Ints(out)
	return out
}

// DisjointBatch serves the smallest-bottleneck pending coflow together with
// every pending coflow that is port-disjoint from the chosen set: the
// co-scheduled coflows share the fabric (and the Reco-Mul alignment)
// without delaying each other, while contenders wait for the next unit.
type DisjointBatch struct{}

// Name implements Policy.
func (DisjointBatch) Name() string { return "disjoint-" + algo.NameRecoMul }

// Pick implements Policy.
func (DisjointBatch) Pick(pending []int, arrivals []Arrival, _ int64) []int {
	// Seed with the smallest bottleneck (SEBF), then grow greedily in
	// bottleneck order with port-disjoint coflows.
	order := make([]int, len(pending))
	copy(order, pending)
	sort.Slice(order, func(a, b int) bool {
		ra := arrivals[order[a]].Demand.MaxRowColSum()
		rb := arrivals[order[b]].Demand.MaxRowColSum()
		if ra != rb {
			return ra < rb
		}
		return order[a] < order[b]
	})
	n := arrivals[order[0]].Demand.N()
	usedIn := make([]bool, n)
	usedOut := make([]bool, n)
	var out []int
	for _, k := range order {
		d := arrivals[k].Demand
		conflict := false
	scan:
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d.At(i, j) > 0 && (usedIn[i] || usedOut[j]) {
					conflict = true
					break scan
				}
			}
		}
		if conflict && len(out) > 0 {
			continue
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d.At(i, j) > 0 {
					usedIn[i] = true
					usedOut[j] = true
				}
			}
		}
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// Result reports an online simulation.
type Result struct {
	// Policy is the name of the policy that produced the result.
	Policy string
	// CCTs[k] is arrival k's completion time minus its arrival time.
	CCTs []int64
	// Reconfigs is the total number of reconfigurations across all service
	// units.
	Reconfigs int
	// Makespan is the time the last coflow completes.
	Makespan int64
	// ServiceUnits is how many times the controller dispatched work.
	ServiceUnits int
}

// Simulate runs the event-driven controller: the switch serves one unit at
// a time; when it frees up (or when the first coflow arrives to an idle
// switch), the policy picks the next unit from the pending set. It is
// SimulateAdmit with every coflow admitted.
func Simulate(arrivals []Arrival, pol Policy, delta, c int64) (*Result, error) {
	res, err := SimulateAdmit(arrivals, AdmitAll{}, pol, delta, c)
	if err != nil {
		return nil, err
	}
	return &res.Result, nil
}

func checkChoice(chosen, pending []int) error {
	if len(chosen) == 0 {
		return fmt.Errorf("%w: policy picked nothing", ErrBadInput)
	}
	ok := make(map[int]bool, len(pending))
	for _, k := range pending {
		ok[k] = true
	}
	seen := make(map[int]bool, len(chosen))
	for _, k := range chosen {
		if !ok[k] || seen[k] {
			return fmt.Errorf("%w: policy picked invalid index %d", ErrBadInput, k)
		}
		seen[k] = true
	}
	return nil
}

// serveUnit schedules the chosen coflows starting at *now through the
// registry — reco-sin for one coflow, reco-mul for a batch — and advances the
// clock to the unit's completion. A unit that would complete past MaxInt64
// ticks is refused as a bad request: each coflow fits int64 alone, but not
// necessarily once it starts late.
func serveUnit(res *Result, arrivals []Arrival, chosen []int, now *int64, delta, c int64) error {
	req := algo.Request{
		Demands: make([]*matrix.Matrix, len(chosen)),
		Weights: make([]float64, len(chosen)),
		Delta:   delta,
		C:       c,
		NoFlows: true,
	}
	for i, k := range chosen {
		req.Demands[i] = arrivals[k].Demand
		req.Weights[i] = arrivals[k].Weight
	}
	name := algo.NameRecoMul
	if len(chosen) == 1 {
		name = algo.NameRecoSin
	}
	unit, err := algo.MustGet(name).Schedule(context.Background(), req)
	if err != nil {
		return fmt.Errorf("online: %w", err)
	}
	unitEnd := *now
	for i, k := range chosen {
		if unit.CCTs[i] > math.MaxInt64-*now {
			return fmt.Errorf("online: %w: arrival %d would complete at %d + %d, which overflows int64 ticks",
				algo.ErrBadRequest, k, *now, unit.CCTs[i])
		}
		finish := *now + unit.CCTs[i]
		res.CCTs[k] = finish - arrivals[k].At
		unitEnd = max(unitEnd, finish)
	}
	*now = unitEnd
	res.Reconfigs += unit.Reconfigs
	return nil
}
