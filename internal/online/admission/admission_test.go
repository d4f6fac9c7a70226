package admission

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"reco/internal/matrix"
	"reco/internal/parallel"
)

func cand(in, out []int64, deadline int64, weight float64) Candidate {
	return Candidate{In: in, Out: out, Deadline: deadline, Weight: weight}
}

func TestAdmitNoDeadlinesAdmitsEverything(t *testing.T) {
	cands := []Candidate{
		cand([]int64{100, 0}, []int64{0, 100}, NoDeadline, 1),
		cand([]int64{900, 900}, []int64{900, 900}, NoDeadline, 0),
		cand([]int64{5}, []int64{5}, NoDeadline, 8),
	}
	d, err := Admit(context.Background(), cands)
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	if len(d.Admitted) != len(cands) || len(d.Rejected) != 0 {
		t.Fatalf("expected all admitted, got admitted=%v rejected=%v", d.Admitted, d.Rejected)
	}
	if d.AdmittedWeight != d.TotalWeight || d.TotalWeight != 10 {
		t.Fatalf("weights: admitted=%v total=%v", d.AdmittedWeight, d.TotalWeight)
	}
	for i := range cands {
		if !d.IsAdmitted(i) {
			t.Fatalf("IsAdmitted(%d) = false", i)
		}
	}
}

func TestAdmitRejectsHopeless(t *testing.T) {
	cands := []Candidate{
		cand([]int64{10}, []int64{10}, 5, 4),  // needs 10 ticks, has 5
		cand([]int64{3}, []int64{3}, 10, 1),   // fits
		cand([]int64{1}, []int64{1}, 0, 100),  // expired
		cand([]int64{0}, []int64{0}, 0, 2),    // expired but empty: fine
		cand([]int64{2}, []int64{2}, -7, 100), // negative deadline
	}
	d, err := Admit(context.Background(), cands)
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	want := []int{1, 3}
	if len(d.Admitted) != len(want) {
		t.Fatalf("admitted %v, want %v", d.Admitted, want)
	}
	for i, v := range want {
		if d.Admitted[i] != v {
			t.Fatalf("admitted %v, want %v", d.Admitted, want)
		}
	}
}

// Under port contention the LP should prefer the heavier candidates. Three
// candidates each need the whole budget of port 0; only one fits.
func TestAdmitPrefersWeight(t *testing.T) {
	cands := []Candidate{
		cand([]int64{10}, []int64{10}, 10, 1),
		cand([]int64{10}, []int64{10}, 10, 5),
		cand([]int64{10}, []int64{10}, 10, 2),
	}
	d, err := Admit(context.Background(), cands)
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	if len(d.Admitted) != 1 || d.Admitted[0] != 1 {
		t.Fatalf("admitted %v (source %s), want [1]", d.Admitted, d.Source)
	}
	if d.AdmittedWeight != 5 || d.TotalWeight != 8 {
		t.Fatalf("weights admitted=%v total=%v", d.AdmittedWeight, d.TotalWeight)
	}
}

// The LP can beat greedy: greedy takes the single heavy candidate that
// fills the port, while two lighter candidates sum to more weight.
func TestAdmitLPBeatsGreedy(t *testing.T) {
	cands := []Candidate{
		cand([]int64{10}, []int64{10}, 10, 5),
		cand([]int64{6}, []int64{6}, 10, 4),
		cand([]int64{4}, []int64{4}, 10, 3),
	}
	g, err := Greedy(cands)
	if err != nil {
		t.Fatalf("Greedy: %v", err)
	}
	if g.AdmittedWeight != 5 {
		t.Fatalf("greedy admitted weight %v, want 5 (set %v)", g.AdmittedWeight, g.Admitted)
	}
	d, err := Admit(context.Background(), cands)
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	if d.Source != "lp" || d.AdmittedWeight != 7 {
		t.Fatalf("lp decision: source=%s weight=%v admitted=%v, want lp/7/[1 2]", d.Source, d.AdmittedWeight, d.Admitted)
	}
}

// Admit must never return a lighter set than Greedy, and the result must
// always be feasible — checked over seeded random instances.
func TestAdmitWeightAtLeastGreedy(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(parallel.Seed(11, 0xad1, int64(trial))))
		ports := 2 + rng.Intn(4)
		n := 3 + rng.Intn(12)
		cands := make([]Candidate, n)
		for i := range cands {
			in := make([]int64, ports)
			out := make([]int64, ports)
			for p := 0; p < ports; p++ {
				in[p] = int64(rng.Intn(20))
				out[p] = int64(rng.Intn(20))
			}
			dl := int64(5 + rng.Intn(60))
			if rng.Intn(5) == 0 {
				dl = NoDeadline
			}
			cands[i] = cand(in, out, dl, float64(1+rng.Intn(8)))
		}
		g, err := Greedy(cands)
		if err != nil {
			t.Fatalf("trial %d: Greedy: %v", trial, err)
		}
		d, err := Admit(context.Background(), cands)
		if err != nil {
			t.Fatalf("trial %d: Admit: %v", trial, err)
		}
		if d.AdmittedWeight < g.AdmittedWeight {
			t.Fatalf("trial %d: Admit weight %v < Greedy weight %v", trial, d.AdmittedWeight, g.AdmittedWeight)
		}
		if !Feasible(cands, d.Admitted) {
			t.Fatalf("trial %d: admitted set %v infeasible", trial, d.Admitted)
		}
		if !math.IsNaN(d.LPObjective) && d.AdmittedWeight > d.LPObjective+1e-6 {
			t.Fatalf("trial %d: integral weight %v exceeds fractional bound %v", trial, d.AdmittedWeight, d.LPObjective)
		}
		if len(d.Admitted)+len(d.Rejected) != n {
			t.Fatalf("trial %d: partition does not cover input", trial)
		}
	}
}

func TestAdmitCancelledContextFallsBackToGreedy(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cands := []Candidate{
		cand([]int64{10}, []int64{10}, 10, 5),
		cand([]int64{6}, []int64{6}, 10, 4),
		cand([]int64{4}, []int64{4}, 10, 3),
	}
	d, err := Admit(ctx, cands)
	if err != nil {
		t.Fatalf("Admit with cancelled ctx: %v", err)
	}
	if d.Source != "greedy" {
		t.Fatalf("source = %s, want greedy", d.Source)
	}
	if d.AdmittedWeight != 5 {
		t.Fatalf("greedy fallback weight %v, want 5", d.AdmittedWeight)
	}
}

// One candidate over MaxLPCandidates sends the whole set to the greedy
// packing without building an LP.
func TestAdmitOversizedGoesGreedy(t *testing.T) {
	cands := make([]Candidate, MaxLPCandidates+1)
	for i := range cands {
		cands[i] = cand([]int64{1}, []int64{1}, 10, 1)
	}
	d, err := Admit(context.Background(), cands)
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	if d.Source != "greedy" || len(d.Admitted) != 10 {
		t.Fatalf("source = %s with %d admitted, want greedy with 10", d.Source, len(d.Admitted))
	}
}

func TestAdmitDeadlineBucketsStayConservative(t *testing.T) {
	// 20 distinct deadlines force bucketing onto MaxDeadlineBuckets
	// boundaries; every admitted set must still satisfy the true EDF bound.
	var cands []Candidate
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20; i++ {
		cands = append(cands, cand([]int64{int64(1 + rng.Intn(6))}, []int64{int64(1 + rng.Intn(6))}, int64(7+3*i), float64(1+rng.Intn(4))))
	}
	d, err := Admit(context.Background(), cands)
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	if !Feasible(cands, d.Admitted) {
		t.Fatalf("bucketed admission produced infeasible set %v", d.Admitted)
	}

	// Candidate i alone fills port i up to its own deadline, so all 20 fit
	// and the unbucketed LP optimum is 20. Rounding a deadline down to its
	// bucket boundary caps that candidate's variable below 1: the bucketed
	// optimum is lower, while the repaired set still admits everyone.
	tight := make([]Candidate, 20)
	for i := range tight {
		load := make([]int64, len(tight))
		load[i] = int64(7 + 3*i)
		tight[i] = cand(load, load, load[i], 1)
	}
	d, err = Admit(context.Background(), tight)
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	if !(d.LPObjective < float64(len(tight))) {
		t.Fatalf("LP optimum %v over 20 distinct deadlines, want below %d (deadlines bucketed)", d.LPObjective, len(tight))
	}
	if len(d.Admitted) != len(tight) {
		t.Fatalf("admitted %v, want all %d", d.Admitted, len(tight))
	}
}

func TestAdmitValidation(t *testing.T) {
	if _, err := Admit(context.Background(), nil); err == nil {
		t.Fatal("expected error for empty input")
	}
	bad := []Candidate{cand([]int64{1}, []int64{1}, 10, -1)}
	if _, err := Admit(context.Background(), bad); err == nil {
		t.Fatal("expected error for negative weight")
	}
	neg := []Candidate{cand([]int64{-1}, []int64{1}, 10, 1)}
	if _, err := Admit(context.Background(), neg); err == nil {
		t.Fatal("expected error for negative load")
	}
}

func TestFeasible(t *testing.T) {
	cands := []Candidate{
		cand([]int64{5, 0}, []int64{0, 5}, 10, 1),
		cand([]int64{6, 0}, []int64{0, 6}, 10, 1),
		cand([]int64{0, 3}, []int64{3, 0}, 4, 1),
		cand([]int64{2}, []int64{2}, NoDeadline, 1),
	}
	if !Feasible(cands, []int{0, 2, 3}) {
		t.Fatal("expected {0,2,3} feasible")
	}
	if Feasible(cands, []int{0, 1}) { // port 0 ingress 11 > 10
		t.Fatal("expected {0,1} infeasible")
	}
	if !Feasible(cands, nil) {
		t.Fatal("empty set must be feasible")
	}
}

// Loads past 2⁵³ ticks have no exact float64: 2⁵⁹+1 rounds to 2⁵⁹, and two
// candidates that overload their port by one tick would pass a float
// comparison. The check is exact, so only one of them is admitted.
func TestFeasibleExactBeyondFloatPrecision(t *testing.T) {
	const d = int64(1) << 60
	cands := []Candidate{
		cand([]int64{d / 2}, []int64{d / 2}, d, 1),
		cand([]int64{d/2 + 1}, []int64{d/2 + 1}, d, 1),
	}
	if Feasible(cands, []int{0, 1}) {
		t.Fatal("Feasible accepts a set that overloads port 0 by one tick")
	}
	if !Feasible(cands, []int{0}) || !Feasible(cands, []int{1}) {
		t.Fatal("each candidate alone must be feasible")
	}
	g, err := Greedy(cands)
	if err != nil {
		t.Fatalf("Greedy: %v", err)
	}
	a, err := Admit(context.Background(), cands)
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	for _, dec := range []*Decision{g, a} {
		if len(dec.Admitted) != 1 {
			t.Fatalf("%s admitted %v, want one candidate", dec.Source, dec.Admitted)
		}
	}
}

func TestShedOrder(t *testing.T) {
	cands := []Candidate{
		cand([]int64{1}, []int64{1}, 100, 2),        // 0
		cand([]int64{1}, []int64{1}, 10, 1),         // 1: lowest weight, tighter
		cand([]int64{1}, []int64{1}, 500, 1),        // 2: lowest weight, loosest
		cand([]int64{1}, []int64{1}, NoDeadline, 2), // 3: weight 2, no deadline
		cand([]int64{1}, []int64{1}, 100, 4),        // 4
	}
	got := ShedOrder(cands, []int{0, 1, 2, 3, 4})
	want := []int{2, 1, 3, 0, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ShedOrder = %v, want %v", got, want)
		}
	}
}

func TestNewCandidate(t *testing.T) {
	m, err := matrix.FromRows([][]int64{{0, 3}, {5, 0}})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCandidate(m, 42, 2)
	if c.In[0] != 3 || c.In[1] != 5 || c.Out[0] != 5 || c.Out[1] != 3 {
		t.Fatalf("loads = in %v out %v", c.In, c.Out)
	}
	if c.Deadline != 42 || c.Weight != 2 {
		t.Fatalf("deadline/weight = %d/%v", c.Deadline, c.Weight)
	}
}

func TestAdmitRespectsTimeBudget(t *testing.T) {
	// A moderately sized instance with a tight deadline still returns
	// promptly with a valid (possibly greedy) decision: Admit bounds its
	// LP by LPBudget on its own, with no deadline on ctx.
	rng := rand.New(rand.NewSource(7))
	var cands []Candidate
	for i := 0; i < 60; i++ {
		in := make([]int64, 16)
		out := make([]int64, 16)
		for p := range in {
			in[p] = int64(rng.Intn(30))
			out[p] = int64(rng.Intn(30))
		}
		cands = append(cands, cand(in, out, int64(50+rng.Intn(200)), float64(1+rng.Intn(8))))
	}
	start := time.Now()
	d, err := Admit(context.Background(), cands)
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Admit took %v", elapsed)
	}
	if !Feasible(cands, d.Admitted) {
		t.Fatal("admitted set infeasible")
	}
}
