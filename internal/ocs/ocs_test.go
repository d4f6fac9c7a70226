package ocs

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"reco/internal/matrix"
	"reco/internal/schedule"
)

func mustMatrix(t *testing.T, rows [][]int64) *matrix.Matrix {
	t.Helper()
	m, err := matrix.FromRows(rows)
	if err != nil {
		t.Fatalf("FromRows: %v", err)
	}
	return m
}

func TestAssignmentValidate(t *testing.T) {
	tests := []struct {
		name string
		a    Assignment
		n    int
		ok   bool
	}{
		{"full perm", Assignment{Perm: []int{1, 0}, Dur: 5}, 2, true},
		{"partial perm", Assignment{Perm: []int{-1, 0}, Dur: 5}, 2, true},
		{"wrong len", Assignment{Perm: []int{0}, Dur: 5}, 2, false},
		{"zero dur", Assignment{Perm: []int{0, 1}, Dur: 0}, 2, false},
		{"egress twice", Assignment{Perm: []int{0, 0}, Dur: 5}, 2, false},
		{"egress out of range", Assignment{Perm: []int{0, 2}, Dur: 5}, 2, false},
		{"egress negative", Assignment{Perm: []int{0, -2}, Dur: 5}, 2, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.a.Validate(tt.n)
			if tt.ok && err != nil {
				t.Errorf("unexpected error: %v", err)
			}
			if !tt.ok && !errors.Is(err, ErrInvalidAssignment) {
				t.Errorf("got %v, want ErrInvalidAssignment", err)
			}
		})
	}
}

func TestExecAllStopPaperExample(t *testing.T) {
	// Fig. 2: D'_ex (all entries regularized to 200) is served by three
	// full permutations of duration 200 each; with delta=100 the actual
	// completion is (106+109+103) + 3*100 = 618, because each establishment
	// ends when its slowest circuit drains the *original* demand.
	d := mustMatrix(t, [][]int64{
		{104, 109, 102},
		{103, 105, 107},
		{108, 101, 106},
	})
	cs := CircuitSchedule{
		{Perm: []int{0, 1, 2}, Dur: 200}, // diag: 104,105,106 -> max 106
		{Perm: []int{1, 2, 0}, Dur: 200}, // 109,107,108 -> max 109
		{Perm: []int{2, 0, 1}, Dur: 200}, // 102,103,101 -> max 103
	}
	res, err := ExecAllStop(d, cs, 100)
	if err != nil {
		t.Fatalf("ExecAllStop: %v", err)
	}
	if res.CCT != 618 {
		t.Errorf("CCT = %d, want 618", res.CCT)
	}
	if res.Reconfigs != 3 {
		t.Errorf("Reconfigs = %d, want 3", res.Reconfigs)
	}
	if res.ConfTime != 300 || res.TransTime != 318 {
		t.Errorf("ConfTime,TransTime = %d,%d, want 300,318", res.ConfTime, res.TransTime)
	}
	if err := res.Flows.Validate(3, 1); err != nil {
		t.Errorf("flow schedule invalid: %v", err)
	}
	if err := res.Flows.CheckDemand([]*matrix.Matrix{d}); err != nil {
		t.Errorf("demand not satisfied: %v", err)
	}
}

func TestExecAllStopSkipsDrainedAssignments(t *testing.T) {
	d := mustMatrix(t, [][]int64{
		{5, 0},
		{0, 5},
	})
	cs := CircuitSchedule{
		{Perm: []int{0, 1}, Dur: 10}, // drains everything in 5 ticks
		{Perm: []int{1, 0}, Dur: 10}, // nothing to send: must be skipped
		{Perm: []int{0, 1}, Dur: 10}, // nothing to send: must be skipped
	}
	res, err := ExecAllStop(d, cs, 3)
	if err != nil {
		t.Fatalf("ExecAllStop: %v", err)
	}
	if res.Reconfigs != 1 {
		t.Errorf("Reconfigs = %d, want 1 (drained assignments must not reconfigure)", res.Reconfigs)
	}
	if res.CCT != 8 {
		t.Errorf("CCT = %d, want 8 (3 reconfig + 5 transmission)", res.CCT)
	}
}

func TestExecAllStopPartialPermAndIdleCircuits(t *testing.T) {
	d := mustMatrix(t, [][]int64{
		{4, 0},
		{0, 9},
	})
	cs := CircuitSchedule{
		{Perm: []int{0, -1}, Dur: 4},
		{Perm: []int{-1, 1}, Dur: 9},
	}
	res, err := ExecAllStop(d, cs, 2)
	if err != nil {
		t.Fatalf("ExecAllStop: %v", err)
	}
	if res.CCT != 2+4+2+9 {
		t.Errorf("CCT = %d, want 17", res.CCT)
	}
}

func TestExecAllStopIncomplete(t *testing.T) {
	d := mustMatrix(t, [][]int64{{10}})
	cs := CircuitSchedule{{Perm: []int{0}, Dur: 4}}
	res, err := ExecAllStop(d, cs, 1)
	if !errors.Is(err, ErrIncomplete) {
		t.Fatalf("err = %v, want ErrIncomplete", err)
	}
	if res.CCT != 5 {
		t.Errorf("partial CCT = %d, want 5", res.CCT)
	}
}

func TestExecAllStopRejectsBadInput(t *testing.T) {
	d := mustMatrix(t, [][]int64{{1}})
	if _, err := ExecAllStop(d, CircuitSchedule{{Perm: []int{0, 1}, Dur: 1}}, 1); !errors.Is(err, ErrInvalidAssignment) {
		t.Errorf("bad perm: err = %v", err)
	}
	if _, err := ExecAllStop(d, CircuitSchedule{{Perm: []int{0}, Dur: 1}}, -1); !errors.Is(err, ErrInvalidAssignment) {
		t.Errorf("negative delta: err = %v", err)
	}
}

func TestExecNotAllStopCarriedCircuits(t *testing.T) {
	// Ingress 0 keeps its circuit to egress 0 across the transition, so it
	// transmits through the reconfiguration window; ingress 1 changes.
	d := mustMatrix(t, [][]int64{
		{20, 0},
		{5, 5},
	})
	cs := CircuitSchedule{
		{Perm: []int{0, 1}, Dur: 5},   // sends (0,0):5, (1,1):5
		{Perm: []int{0, -1}, Dur: 20}, // carried circuit (0,0)
		{Perm: []int{-1, 0}, Dur: 5},  // changed circuit (1,0)
	}
	res, err := ExecNotAllStop(d, cs, 10)
	if err != nil {
		t.Fatalf("ExecNotAllStop: %v", err)
	}
	// Window 1: reconfig 10 + 5 = ends at 15. Window 2: (0,0) carried, no
	// lag for it, but the window itself has no changed active circuit =>
	// lag 0, sends remaining 15 -> ends at 30. Window 3: reconfig 10 + 5.
	if res.Reconfigs != 2 {
		t.Errorf("Reconfigs = %d, want 2", res.Reconfigs)
	}
	if res.CCT != 45 {
		t.Errorf("CCT = %d, want 45", res.CCT)
	}
	if err := res.Flows.CheckDemand([]*matrix.Matrix{d}); err != nil {
		t.Errorf("demand not satisfied: %v", err)
	}
	if err := res.Flows.Validate(2, 1); err != nil {
		t.Errorf("flow schedule invalid: %v", err)
	}
}

func TestNotAllStopNeverSlowerThanAllStop(t *testing.T) {
	d := mustMatrix(t, [][]int64{
		{7, 3, 0},
		{0, 7, 3},
		{3, 0, 7},
	})
	cs := CircuitSchedule{
		{Perm: []int{0, 1, 2}, Dur: 7},
		{Perm: []int{1, 2, 0}, Dur: 3},
	}
	all, err := ExecAllStop(d, cs, 50)
	if err != nil {
		t.Fatalf("all-stop: %v", err)
	}
	nas, err := ExecNotAllStop(d, cs, 50)
	if err != nil {
		t.Fatalf("not-all-stop: %v", err)
	}
	if nas.CCT > all.CCT {
		t.Errorf("not-all-stop CCT %d > all-stop %d", nas.CCT, all.CCT)
	}
}

func TestLowerBound(t *testing.T) {
	d := mustMatrix(t, [][]int64{
		{4, 0, 2},
		{0, 5, 0},
		{1, 0, 3},
	})
	// rho = 6 (row 0), tau = 2.
	if got := LowerBound(d, 10); got != 26 {
		t.Errorf("LowerBound = %d, want 26", got)
	}
}

func TestExecSequential(t *testing.T) {
	d0 := mustMatrix(t, [][]int64{{6, 0}, {0, 6}})
	d1 := mustMatrix(t, [][]int64{{0, 4}, {4, 0}})
	s0 := CircuitSchedule{{Perm: []int{0, 1}, Dur: 6}}
	s1 := CircuitSchedule{{Perm: []int{1, 0}, Dur: 4}}
	res, err := ExecSequential([]*matrix.Matrix{d0, d1}, []CircuitSchedule{s0, s1}, []int{1, 0}, 2, true)
	if err != nil {
		t.Fatalf("ExecSequential: %v", err)
	}
	// Coflow 1 first: 2+4 = 6. Then coflow 0: 6 + 2+6 = 14.
	if res.CCTs[1] != 6 || res.CCTs[0] != 14 {
		t.Errorf("CCTs = %v, want [14 6]", res.CCTs)
	}
	if res.Reconfigs != 2 {
		t.Errorf("Reconfigs = %d, want 2", res.Reconfigs)
	}
	if err := res.Flows.Validate(2, 2); err != nil {
		t.Errorf("flow schedule invalid: %v", err)
	}
	if err := res.Flows.CheckDemand([]*matrix.Matrix{d0, d1}); err != nil {
		t.Errorf("demand not satisfied: %v", err)
	}
}

func TestExecSequentialValidation(t *testing.T) {
	d := mustMatrix(t, [][]int64{{1}})
	s := CircuitSchedule{{Perm: []int{0}, Dur: 1}}
	if _, err := ExecSequential([]*matrix.Matrix{d}, nil, []int{0}, 1, true); err == nil {
		t.Error("mismatched schedules accepted")
	}
	if _, err := ExecSequential([]*matrix.Matrix{d}, []CircuitSchedule{s}, []int{0, 0}, 1, true); err == nil {
		t.Error("bad order length accepted")
	}
	if _, err := ExecSequential([]*matrix.Matrix{d, d}, []CircuitSchedule{s, s}, []int{0, 0}, 1, true); err == nil {
		t.Error("non-permutation order accepted")
	}
}

func TestSinglePortSchedule(t *testing.T) {
	tests := []struct {
		name string
		rows [][]int64
		ok   bool
		len  int
	}{
		{"empty", [][]int64{{0, 0}, {0, 0}}, true, 0},
		{"s2s", [][]int64{{0, 5}, {0, 0}}, true, 1},
		{"s2m", [][]int64{{3, 5}, {0, 0}}, true, 2},
		{"m2s", [][]int64{{3, 0}, {7, 0}}, true, 2},
		{"m2m", [][]int64{{3, 0}, {0, 7}}, false, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d := mustMatrix(t, tt.rows)
			cs, ok := SinglePortSchedule(d)
			if ok != tt.ok {
				t.Fatalf("ok = %v, want %v", ok, tt.ok)
			}
			if !ok {
				return
			}
			if len(cs) != tt.len {
				t.Fatalf("got %d assignments, want %d", len(cs), tt.len)
			}
			if tt.len == 0 {
				return
			}
			res, err := ExecAllStop(d, cs, 10)
			if err != nil {
				t.Fatalf("exec: %v", err)
			}
			// Optimal for single-port: total demand + one delta per flow.
			want := d.Total() + int64(tt.len)*10
			if res.CCT != want {
				t.Errorf("CCT = %d, want %d", res.CCT, want)
			}
			if err := res.Flows.CheckDemand([]*matrix.Matrix{d}); err != nil {
				t.Errorf("demand: %v", err)
			}
		})
	}
}

// withSummary copies d the way the request parser hands matrices over:
// carrying the summary of what its cells hold.
func withSummary(t *testing.T, d *matrix.Matrix) *matrix.Matrix {
	t.Helper()
	rho, ok := d.CheckedMaxRowColSum()
	m := d.Clone()
	m.SetSummary(matrix.Summary{
		Rho: rho, Tau: d.MaxRowColNonZeros(), Total: d.Total(),
		NonZeros: d.NonZeros(), MaxEntry: d.MaxEntry(), Overflow: !ok,
	})
	return m
}

// TestSummaryChangesNoAnswer: a matrix that carries its summary lets
// SinglePortSchedule, LowerBound and the executor skip their scans; what
// they answer must be what they answer for the same cells without one.
func TestSummaryChangesNoAnswer(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(6)
		plain, err := matrix.New(n)
		if err != nil {
			t.Fatal(err)
		}
		// A third of the trials fill one row or one column only, so both
		// answers of SinglePortSchedule are exercised.
		row, col := rng.Intn(n), rng.Intn(n)
		shape := rng.Intn(3)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if (shape == 1 && i != row) || (shape == 2 && j != col) || rng.Intn(2) == 0 {
					continue
				}
				plain.Set(i, j, 1+rng.Int63n(40))
			}
		}
		carried := withSummary(t, plain)
		if a, b := LowerBound(plain, 7), LowerBound(carried, 7); a != b {
			t.Fatalf("LowerBound %d without a summary, %d with\n%v", a, b, plain)
		}
		csPlain, okPlain := SinglePortSchedule(plain)
		csCarried, okCarried := SinglePortSchedule(carried)
		if okPlain != okCarried || !reflect.DeepEqual(csPlain, csCarried) {
			t.Fatalf("SinglePortSchedule: %v %v without a summary, %v %v with\n%v", csPlain, okPlain, csCarried, okCarried, plain)
		}
		if !okPlain || len(csPlain) == 0 {
			continue
		}
		resPlain, errPlain := ExecAllStop(plain, csPlain, 7)
		resCarried, errCarried := ExecAllStop(carried, csCarried, 7)
		if errPlain != nil || errCarried != nil || !reflect.DeepEqual(resPlain, resCarried) {
			t.Fatalf("ExecAllStop: %+v (%v) without a summary, %+v (%v) with", resPlain, errPlain, resCarried, errCarried)
		}
	}
}

// TestExecAllStopResidualCarriesNothingOver: the executor's scratch residual
// is recycled between calls. A run that ends incomplete leaves demand in it;
// the next run of the same dimension must start from its own demand alone,
// and a run of another dimension must not be handed the wrong size.
func TestExecAllStopResidualCarriesNothingOver(t *testing.T) {
	first := mustMatrix(t, [][]int64{{0, 9}, {9, 0}})
	if _, err := ExecAllStop(first, CircuitSchedule{{Perm: []int{1, 0}, Dur: 4}}, 1); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("short schedule: error %v, want ErrIncomplete", err)
	}
	second := mustMatrix(t, [][]int64{{3, 0}, {0, 2}})
	for _, d := range []*matrix.Matrix{second, mustMatrix(t, [][]int64{{5}}), second} {
		perm := make([]int, d.N())
		for i := range perm {
			perm[i] = i
		}
		res, err := ExecAllStop(d, CircuitSchedule{{Perm: perm, Dur: 100}}, 1)
		if err != nil {
			t.Fatalf("n=%d: %v", d.N(), err)
		}
		if want := d.MaxEntry() + 1; res.CCT != want {
			t.Errorf("n=%d: CCT %d, want %d", d.N(), res.CCT, want)
		}
		if err := res.Flows.CheckDemand([]*matrix.Matrix{d}); err != nil {
			t.Errorf("n=%d: %v", d.N(), err)
		}
	}
}

func TestCoreExecFasterCore(t *testing.T) {
	d := mustMatrix(t, [][]int64{{10, 0}, {0, 6}})
	cs := CircuitSchedule{{Perm: []int{0, 1}, Dur: 10}}
	// bw=2: maxRem 10 drains in ceil(10/2)=5 ticks, CCT = delta + 5.
	res, err := Core{Delta: 3, Bandwidth: 2, Flows: true}.Exec(d, cs)
	if err != nil {
		t.Fatal(err)
	}
	if res.CCT != 8 {
		t.Errorf("CCT = %d, want 8", res.CCT)
	}
	// Flow (1,1): 6 units at bw 2 → 3 ticks.
	for _, f := range res.Flows {
		if f.In == 1 && f.End-f.Start != 3 {
			t.Errorf("flow (1,1) spans %d ticks, want 3", f.End-f.Start)
		}
	}
	if _, err := (Core{Delta: 3, Bandwidth: 0}).Exec(d, cs); !errors.Is(err, ErrInvalidAssignment) {
		t.Errorf("bw=0: err = %v, want ErrInvalidAssignment", err)
	}
}

// TestSequenceOutgrowsBound: a run that emits more flows than its bound
// promised, or hands back a list of its own, still lands every flow shifted
// and attributed, after the flows already in place.
func TestSequenceOutgrowsBound(t *testing.T) {
	emit := map[int]int{0: 2, 1: 5, 2: 3}
	seq, err := Sequence(3, []int{2, 0, 1}, func(k int) int { return 1 }, func(k int, flows schedule.FlowSchedule) (Result, error) {
		if k == 0 {
			flows = nil // a list of its own
		}
		for i := 0; i < emit[k]; i++ {
			flows = append(flows, schedule.FlowInterval{Start: int64(i), End: int64(i + 1), In: k, Out: i})
		}
		return Result{CCT: int64(emit[k]), Flows: flows}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var want schedule.FlowSchedule
	now := int64(0)
	for _, k := range []int{2, 0, 1} {
		for i := 0; i < emit[k]; i++ {
			want = append(want, schedule.FlowInterval{Start: now + int64(i), End: now + int64(i+1), In: k, Out: i, Coflow: k})
		}
		now += int64(emit[k])
	}
	if !reflect.DeepEqual(seq.Flows, want) {
		t.Errorf("flows %v, want %v", seq.Flows, want)
	}
	if !reflect.DeepEqual(seq.CCTs, []int64{5, 10, 3}) {
		t.Errorf("CCTs %v, want [5 10 3]", seq.CCTs)
	}
}

// TestExecSequentialOneCoflowAllocs: a one-coflow sequence, which is every
// single-coflow request, allocates what the executor does plus the order
// check and the CCT list, and nothing more: the flow list is reserved once.
func TestExecSequentialOneCoflowAllocs(t *testing.T) {
	d := mustMatrix(t, [][]int64{{0, 3, 5}, {4, 0, 2}, {1, 6, 0}})
	cs := CircuitSchedule{
		{Perm: []int{1, 2, 0}, Dur: 6}, {Perm: []int{2, 0, 1}, Dur: 5}, {Perm: []int{0, 2, 1}, Dur: 4},
	}
	// The fewest over single runs: the scratch pool may come up empty (under
	// the race detector it drops at random), which costs a run a fresh one.
	fewest := func(f func()) float64 {
		least := math.Inf(1)
		for i := 0; i < 20; i++ {
			least = min(least, testing.AllocsPerRun(1, f))
		}
		return least
	}
	exec := fewest(func() {
		if _, err := ExecAllStop(d, cs, 3); err != nil {
			t.Fatal(err)
		}
	})
	seq := fewest(func() {
		if _, err := ExecSequential([]*matrix.Matrix{d}, []CircuitSchedule{cs}, []int{0}, 3, true); err != nil {
			t.Fatal(err)
		}
	})
	if seq != exec+2 {
		t.Errorf("ExecSequential of one coflow: %v allocations, want ExecAllStop's %v + 2", seq, exec)
	}
}

// TestExecAllStopAllocsIndependentOfTerms: a run allocates its flow list and
// a constant handful besides — validating an assignment, walking to it and
// draining it allocate nothing, so a schedule ten times as long costs the
// same number of allocations.
func TestExecAllStopAllocsIndependentOfTerms(t *testing.T) {
	const n = 8
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	allocs := func(terms int) float64 {
		d, _ := matrix.New(n)
		for i := 0; i < n; i++ {
			d.Set(i, i, int64(terms))
		}
		cs := make(CircuitSchedule, terms)
		for u := range cs {
			cs[u] = Assignment{Perm: perm, Dur: 1}
		}
		return testing.AllocsPerRun(20, func() {
			if res, err := ExecAllStop(d, cs, 3); err != nil || res.Reconfigs != terms {
				t.Fatalf("%d terms: %d reconfigurations, error %v", terms, res.Reconfigs, err)
			}
		})
	}
	// The scratch pool may come up empty (under the race detector it drops
	// at random), which costs a run the four allocations of a fresh scratch.
	if short, long := allocs(20), allocs(200); long > short+4 {
		t.Errorf("%v allocations for 20 terms, %v for 200", short, long)
	}
}
