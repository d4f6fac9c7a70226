package sim

import (
	"errors"
	"math/rand"
	"testing"

	"reco/internal/matrix"
)

func mustMatrix(t *testing.T, rows [][]int64) *matrix.Matrix {
	t.Helper()
	m, err := matrix.FromRows(rows)
	if err != nil {
		t.Fatalf("FromRows: %v", err)
	}
	return m
}

func randomDemand(rng *rand.Rand, n int, fill float64) *matrix.Matrix {
	m, _ := matrix.New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < fill {
				m.Set(i, j, 1+rng.Int63n(400))
			}
		}
	}
	if m.IsZero() {
		m.Set(0, 0, 7)
	}
	return m
}

func TestRunValidation(t *testing.T) {
	d := mustMatrix(t, [][]int64{{5}})
	if _, err := Run(d, nil, 1); !errors.Is(err, ErrController) {
		t.Errorf("nil controller: %v", err)
	}
	if _, err := Run(d, GreedyBottleneck{}, -1); !errors.Is(err, ErrController) {
		t.Errorf("negative delta: %v", err)
	}
}

type fixedController struct{ decisions []Decision }

func (f *fixedController) Name() string { return "fixed" }

func (f *fixedController) Next(State) Decision {
	if len(f.decisions) == 0 {
		return Decision{}
	}
	d := f.decisions[0]
	f.decisions = f.decisions[1:]
	return d
}

func TestRunRejectsBadDecisions(t *testing.T) {
	d := mustMatrix(t, [][]int64{{5, 0}, {0, 5}})
	cases := []struct {
		name string
		dec  Decision
	}{
		{"bad perm", Decision{Perm: []int{0, 0}}},
		{"short perm", Decision{Perm: []int{0}}},
		{"negative budget", Decision{Perm: []int{0, 1}, Budget: -2}},
		{"no demand", Decision{Perm: []int{1, 0}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(d, &fixedController{decisions: []Decision{tc.dec}}, 1)
			if !errors.Is(err, ErrController) {
				t.Errorf("got %v, want ErrController", err)
			}
		})
	}
}

func TestRunStalledController(t *testing.T) {
	d := mustMatrix(t, [][]int64{{5}})
	res, err := Run(d, &fixedController{}, 1)
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("got %v, want ErrStalled", err)
	}
	if res == nil {
		t.Fatal("partial result missing")
	}
}

func TestRunEmptyDemand(t *testing.T) {
	z, _ := matrix.New(3)
	res, err := Run(z, GreedyBottleneck{}, 10)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.CCT != 0 || res.Reconfigs != 0 {
		t.Errorf("empty demand produced %+v", res)
	}
}

func TestGreedyBottleneckDrains(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(7)
		delta := int64(1 + rng.Intn(50))
		d := randomDemand(rng, n, 0.4)
		res, err := Run(d, GreedyBottleneck{}, delta)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := res.Flows.CheckDemand([]*matrix.Matrix{d}); err != nil {
			t.Fatalf("trial %d: demand: %v", trial, err)
		}
		if err := res.Flows.Validate(n, 1); err != nil {
			t.Fatalf("trial %d: port constraint: %v", trial, err)
		}
		// The event log is consistent: strictly increasing windows.
		for i, tr := range res.Log {
			if tr.Up != tr.Start+delta || tr.Down < tr.Up {
				t.Fatalf("trial %d: bad trace %+v", trial, tr)
			}
			if i > 0 && tr.Start != res.Log[i-1].Down {
				t.Fatalf("trial %d: gap in event log", trial)
			}
		}
	}
}

func TestGreedyMaxWeightDrains(t *testing.T) {
	d := mustMatrix(t, [][]int64{
		{90, 10, 0},
		{0, 80, 15},
		{20, 0, 70},
	})
	res, err := Run(d, GreedyMaxWeight{Slot: 40}, 5)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := res.Flows.CheckDemand([]*matrix.Matrix{d}); err != nil {
		t.Errorf("demand: %v", err)
	}
	// Slot quantization forces at least ceil(90/40) = 3 establishments.
	if res.Reconfigs < 3 {
		t.Errorf("establishments = %d, want >= 3", res.Reconfigs)
	}
}

func TestGreedyMaxWeightZeroSlotStops(t *testing.T) {
	d := mustMatrix(t, [][]int64{{5}})
	if _, err := Run(d, GreedyMaxWeight{}, 1); !errors.Is(err, ErrStalled) {
		t.Errorf("zero slot: %v", err)
	}
}

// TestReactiveBeatsSlotted pins the qualitative ordering: the reactive
// bottleneck controller needs fewer establishments than the slotted
// max-weight controller on skewed demand.
func TestReactiveBeatsSlotted(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	d := randomDemand(rng, 8, 0.6)
	const delta = 20
	bott, err := Run(d, GreedyBottleneck{}, delta)
	if err != nil {
		t.Fatalf("bottleneck: %v", err)
	}
	slot, err := Run(d, GreedyMaxWeight{Slot: 25}, delta)
	if err != nil {
		t.Fatalf("slotted: %v", err)
	}
	if bott.CCT > 2*slot.CCT {
		t.Errorf("reactive bottleneck CCT %d wildly worse than slotted %d", bott.CCT, slot.CCT)
	}
}
