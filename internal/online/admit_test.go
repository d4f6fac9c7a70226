package online

import (
	"math/rand"
	"testing"

	"reco/internal/matrix"
	"reco/internal/parallel"
)

// denseMatrix builds an n×n demand with uniform entries in [lo, hi).
func denseMatrix(t *testing.T, rng *rand.Rand, n int, lo, hi int64) *matrix.Matrix {
	t.Helper()
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = make([]int64, n)
		for j := range rows[i] {
			if i != j {
				rows[i][j] = lo + rng.Int63n(hi-lo)
			}
		}
	}
	return mustMatrix(t, rows)
}

// AdmitAll in front of any policy, with or without deadlines on the
// arrivals, sheds nothing and admits all the weight.
func TestAdmitAllAdmitsEverything(t *testing.T) {
	policies := []Policy{FIFO{}, SEBF{}, Batch{}, DisjointBatch{}, EDF{}}
	for trial := 0; trial < 4; trial++ {
		rng := rand.New(rand.NewSource(parallel.Seed(5, 0xade, int64(trial))))
		arrivals := randomArrivals(t, rng, 8, 10, trial%2 == 1)
		for _, pol := range policies {
			got, err := SimulateAdmit(arrivals, AdmitAll{}, pol, 10, 4)
			if err != nil {
				t.Fatalf("trial %d %s: SimulateAdmit: %v", trial, pol.Name(), err)
			}
			for k, r := range got.Rejected {
				if r {
					t.Fatalf("trial %d %s: admit-all rejected arrival %d", trial, pol.Name(), k)
				}
			}
			if got.AdmittedWeight != got.TotalWeight {
				t.Fatalf("trial %d %s: admitted weight %v != total %v",
					trial, pol.Name(), got.AdmittedWeight, got.TotalWeight)
			}
		}
	}
}

// LP admission under overload sheds work, never misses more than it
// serves hopelessly, and records a consistent partition.
func TestSimulateAdmitOverloadSheds(t *testing.T) {
	rng := rand.New(rand.NewSource(parallel.Seed(5, 0xade, 99)))
	// Everything arrives at once with deadlines far too tight for the
	// whole set: admission must reject at least one coflow.
	var arrivals []Arrival
	for i := 0; i < 6; i++ {
		d := denseMatrix(t, rng, 6, 40, 80)
		arrivals = append(arrivals, Arrival{
			Demand:   d,
			At:       0,
			Weight:   float64(1 + i%3),
			Deadline: 900,
		})
	}
	res, err := SimulateAdmit(arrivals, LPAdmit{}, EDF{}, 10, 4)
	if err != nil {
		t.Fatalf("SimulateAdmit: %v", err)
	}
	rejected := 0
	for k, r := range res.Rejected {
		if r {
			rejected++
			if res.CCTs[k] != 0 {
				t.Fatalf("rejected arrival %d has CCT %d", k, res.CCTs[k])
			}
		}
	}
	if rejected == 0 {
		t.Fatal("expected overloaded instance to shed at least one coflow")
	}
	if rejected == len(arrivals) {
		t.Fatal("admission shed everything")
	}
	if res.AdmittedWeight >= res.TotalWeight {
		t.Fatalf("admitted weight %v not below total %v", res.AdmittedWeight, res.TotalWeight)
	}
}

func TestEDFOrdering(t *testing.T) {
	m := func(v int64) *matrix.Matrix {
		d, err := matrix.FromRows([][]int64{{0, v}, {v, 0}})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	arrivals := []Arrival{
		{Demand: m(5), At: 0},               // no deadline: last
		{Demand: m(5), At: 0, Deadline: 90}, // second
		{Demand: m(5), At: 0, Deadline: 40}, // first
		{Demand: m(3), At: 0, Deadline: 90}, // ties with 1 on deadline, smaller rho wins
	}
	pending := []int{0, 1, 2, 3}
	if got := (EDF{}).Pick(pending, arrivals, 0); got[0] != 2 {
		t.Fatalf("EDF picked %v, want 2 first", got)
	}
	if got := (EDF{}).Pick([]int{0, 1, 3}, arrivals, 0); got[0] != 3 {
		t.Fatalf("EDF picked %v, want 3 (smaller rho at equal deadline)", got)
	}
	if got := (EDF{}).Pick([]int{0, 1}, arrivals, 0); got[0] != 1 {
		t.Fatalf("EDF picked %v, want 1 before the deadline-free coflow", got)
	}
}

func TestSimulateAdmitValidation(t *testing.T) {
	arr := []Arrival{{Demand: mustMatrix(t, [][]int64{{0, 1}, {1, 0}}), At: 0}}
	if _, err := SimulateAdmit(nil, AdmitAll{}, FIFO{}, 10, 4); err == nil {
		t.Fatal("expected error for no arrivals")
	}
	if _, err := SimulateAdmit(arr, nil, FIFO{}, 10, 4); err == nil {
		t.Fatal("expected error for nil admitter")
	}
	if _, err := SimulateAdmit(arr, AdmitAll{}, nil, 10, 4); err == nil {
		t.Fatal("expected error for nil policy")
	}
}

func randomArrivals(t *testing.T, rng *rand.Rand, count, n int, withDeadlines bool) []Arrival {
	arrivals := make([]Arrival, count)
	var at int64
	for i := range arrivals {
		d := denseMatrix(t, rng, n, 5, 40)
		arrivals[i] = Arrival{Demand: d, At: at, Weight: float64(1 + rng.Intn(4))}
		if withDeadlines {
			rho := d.MaxRowColSum()
			arrivals[i].Deadline = at + rho*int64(3+rng.Intn(5))
		}
		at += int64(rng.Intn(200))
	}
	return arrivals
}
