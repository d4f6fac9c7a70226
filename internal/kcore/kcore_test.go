package kcore

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"reco/internal/core"
	"reco/internal/matrix"
	"reco/internal/ocs"
	"reco/internal/ordering"
)

func demand(t *testing.T, rng *rand.Rand, n int, density float64) *matrix.Matrix {
	t.Helper()
	d, err := matrix.New(n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < density {
				d.Set(i, j, 50+rng.Int63n(400))
			}
		}
	}
	if d.IsZero() {
		d.Set(0, 0, 50)
	}
	return d
}

// TestScheduleBatchKOneMatchesSequentialRecoSin is the scheduler-layer K=1
// differential test: the O(K) pipeline on the degenerate fabric must be
// byte-identical to SEBF-ordered per-coflow Reco-Sin on the single switch.
func TestScheduleBatchKOneMatchesSequentialRecoSin(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	delta := int64(40)
	n := 12
	ds := make([]*matrix.Matrix, 5)
	plans := make([]ocs.CircuitSchedule, len(ds))
	for k := range ds {
		ds[k] = demand(t, rng, n, 0.4)
		var err error
		plans[k], err = core.RecoSin(ds[k], delta)
		if err != nil {
			t.Fatal(err)
		}
	}
	want, err := ocs.ExecSequential(ds, plans, ordering.SEBF(ds), delta, true)
	if err != nil {
		t.Fatalf("ExecSequential: %v", err)
	}
	single, _ := Uniform(1, delta)
	for _, strat := range []Strategy{Greedy, RoundRobin} {
		batch, err := ScheduleBatch(context.Background(), ds, single, strat, true)
		if err != nil {
			t.Fatalf("%v: ScheduleBatch: %v", strat, err)
		}
		if !reflect.DeepEqual(batch.Seq, want) {
			t.Errorf("%v: K=1 batch result diverges from sequential Reco-Sin", strat)
		}
	}
}

// TestPlanCoflowCompletes: every core share is fully served by its plan.
func TestPlanCoflowCompletes(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	n := 10
	delta := int64(25)
	d := demand(t, rng, n, 0.6)
	for _, k := range []int{1, 2, 4, 8} {
		topo, err := Uniform(k, delta)
		if err != nil {
			t.Fatal(err)
		}
		shares, plans, err := PlanCoflow(context.Background(), d, topo, Greedy)
		if err != nil {
			t.Fatalf("K=%d: PlanCoflow: %v", k, err)
		}
		kr, err := Exec(topo, shares, plans)
		if err != nil {
			t.Fatalf("K=%d: Exec: %v", k, err)
		}
		var moved int64
		for _, f := range kr.Flows {
			moved += f.End - f.Start
		}
		if moved != d.Total() {
			t.Errorf("K=%d: moved %d units, want %d", k, moved, d.Total())
		}
		for c, r := range kr.PerCore {
			if err := r.Flows.Validate(n, 1); err != nil {
				t.Errorf("K=%d core %d: port constraint violated: %v", k, c, err)
			}
		}
	}
}

// TestMoreCoresNeverWorse: on a dense many-circuit coflow, the K-core CCT
// with the greedy split is non-increasing in K — the frontier the kcore
// experiment publishes.
func TestMoreCoresNeverWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	n := 16
	delta := int64(30)
	ds := []*matrix.Matrix{demand(t, rng, n, 0.7), demand(t, rng, n, 0.5)}
	prev := int64(-1)
	for _, k := range []int{1, 2, 4, 8} {
		topo, err := Uniform(k, delta)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := ScheduleBatch(context.Background(), ds, topo, Greedy, true)
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		var worst int64
		for _, cct := range batch.Seq.CCTs {
			if cct > worst {
				worst = cct
			}
		}
		if prev >= 0 && worst > prev {
			t.Errorf("K=%d makespan %d worse than previous %d", k, worst, prev)
		}
		prev = worst
	}
}

// TestGreedyBeatsRoundRobin on a skewed coflow: a few huge entries next to
// many small ones punish size-blind cyclic dealing.
func TestGreedyBeatsRoundRobin(t *testing.T) {
	n := 12
	delta := int64(30)
	d, _ := matrix.New(n)
	// One hot row: alternating elephant/mouse entries. Round-robin at K=2
	// deals all elephants to one core; greedy balances them.
	for j := 0; j < n; j++ {
		if j%2 == 0 {
			d.Set(0, j, 4000)
		} else {
			d.Set(0, j, 10)
		}
	}
	topo, err := Uniform(2, delta)
	if err != nil {
		t.Fatal(err)
	}
	ds := []*matrix.Matrix{d}
	g, err := ScheduleBatch(context.Background(), ds, topo, Greedy, true)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ScheduleBatch(context.Background(), ds, topo, RoundRobin, true)
	if err != nil {
		t.Fatal(err)
	}
	if g.Seq.CCTs[0] >= r.Seq.CCTs[0] {
		t.Errorf("greedy CCT %d not better than round-robin %d", g.Seq.CCTs[0], r.Seq.CCTs[0])
	}
}

func TestScheduleBatchCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d, _ := matrix.New(4)
	d.Set(0, 1, 10)
	topo, _ := Uniform(2, 5)
	if _, err := ScheduleBatch(ctx, []*matrix.Matrix{d}, topo, Greedy, true); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ctx: err = %v, want context.Canceled", err)
	}
}

func TestBadInputs(t *testing.T) {
	d, _ := matrix.New(4)
	d.Set(0, 1, 10)
	topo, _ := Uniform(2, 5)
	if _, err := ScheduleBatch(context.Background(), nil, topo, Greedy, true); err == nil {
		t.Error("empty batch accepted")
	}
	if _, _, err := PlanCoflow(context.Background(), d, topo, Strategy(99)); !errors.Is(err, ErrBadStrategy) {
		t.Errorf("unknown strategy: err = %v, want ErrBadStrategy", err)
	}
	if Greedy.String() != "greedy" || RoundRobin.String() != "roundrobin" {
		t.Error("strategy names changed; experiment columns depend on them")
	}
}

// TestSortLargestFirstMatchesStableSort: SplitGreedy's placement order is
// what a stable sort by value, largest first, makes of the row-major
// entries, on matrices with many ties and on values wide enough to need
// every radix digit.
func TestSortLargestFirstMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		top := []int64{2, 5, 100, 1 << 62}[trial%4]
		d, _ := matrix.New(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Intn(3) > 0 {
					d.Set(i, j, 1+rng.Int63n(top))
				}
			}
		}
		got := d.AppendNonZeros(nil)
		want := slices.Clone(got)
		sortLargestFirst(got)
		slices.SortStableFunc(want, func(a, b matrix.Cell) int {
			switch {
			case a.V > b.V:
				return -1
			case a.V < b.V:
				return 1
			}
			return 0
		})
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d, values below %d): order differs from the stable sort", trial, n, top)
		}
	}
}
