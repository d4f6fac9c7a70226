package ocs_test

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"reco/internal/core"
	"reco/internal/kcore"
	"reco/internal/matrix"
	"reco/internal/ocs"
)

// The K-core executors are internal/kcore's (every core is this package's
// loop on its share); their tests stay in this directory, under the names
// the suite has always listed them by.

func mustMatrix(t *testing.T, rows [][]int64) *matrix.Matrix {
	t.Helper()
	m, err := matrix.FromRows(rows)
	if err != nil {
		t.Fatalf("FromRows: %v", err)
	}
	return m
}

// TestExecKParallelCores checks that independent cores genuinely overlap:
// two disjoint circuits on two cores finish in one core's time.
func TestExecKParallelCores(t *testing.T) {
	d := mustMatrix(t, [][]int64{{8, 0}, {0, 8}})
	topo, err := kcore.Uniform(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	split := []*matrix.Matrix{
		mustMatrix(t, [][]int64{{8, 0}, {0, 0}}),
		mustMatrix(t, [][]int64{{0, 0}, {0, 8}}),
	}
	plans := []ocs.CircuitSchedule{
		{{Perm: []int{0, -1}, Dur: 8}},
		{{Perm: []int{-1, 1}, Dur: 8}},
	}
	res, err := kcore.Exec(topo, split, plans)
	if err != nil {
		t.Fatal(err)
	}
	if res.CCT != 13 { // delta 5 + 8 transmission, both cores concurrent
		t.Errorf("CCT = %d, want 13", res.CCT)
	}
	if res.Reconfigs != 2 || res.ConfTime != 10 {
		t.Errorf("Reconfigs=%d ConfTime=%d, want 2 and 10", res.Reconfigs, res.ConfTime)
	}
	// Single-core serial execution of the same demand needs two
	// establishments on one switch: 2·5 + 8 + 8 = 26 ... actually one
	// establishment carries both circuits; use the split demand total to
	// sanity-check conservation instead.
	var moved int64
	for _, f := range res.Flows {
		moved += f.End - f.Start
	}
	if moved != d.Total() {
		t.Errorf("flows moved %d units, want %d", moved, d.Total())
	}
}

func TestExecKValidation(t *testing.T) {
	topo, _ := kcore.Uniform(2, 5)
	d := mustMatrix(t, [][]int64{{1, 0}, {0, 1}})
	split, _ := kcore.SplitGreedy(d, topo)
	if _, err := kcore.Exec(topo, split, []ocs.CircuitSchedule{{}}); !errors.Is(err, ocs.ErrInvalidAssignment) {
		t.Errorf("short plans: err = %v", err)
	}
	if _, err := kcore.Exec(topo, split[:1], []ocs.CircuitSchedule{{}, {}}); !errors.Is(err, ocs.ErrInvalidAssignment) {
		t.Errorf("short split: err = %v", err)
	}
	bad := kcore.Topology{}
	if _, err := kcore.Exec(bad, nil, nil); !errors.Is(err, kcore.ErrTopology) {
		t.Errorf("bad topology: err = %v", err)
	}
}

// TestExecSequentialKOneCoreByteIdentical: the multi-coflow K=1 path must
// reproduce ExecSequential exactly, including CCT bookkeeping and coflow
// attribution on every flow.
func TestExecSequentialKOneCoreByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 10; trial++ {
		nc := 3 + trial%3
		ds := make([]*matrix.Matrix, nc)
		schedules := make([]ocs.CircuitSchedule, nc)
		splits := make([][]*matrix.Matrix, nc)
		plans := make([][]ocs.CircuitSchedule, nc)
		topo, _ := kcore.Uniform(1, 15)
		order := rng.Perm(nc)
		for k := 0; k < nc; k++ {
			ds[k] = randomDemand(rng, 8)
			var err error
			if schedules[k], err = core.RecoSin(ds[k], 15); err != nil {
				t.Fatal(err)
			}
			splits[k], err = kcore.SplitGreedy(ds[k], topo)
			if err != nil {
				t.Fatal(err)
			}
			plans[k] = []ocs.CircuitSchedule{schedules[k]}
		}
		want, err := ocs.ExecSequential(ds, schedules, order, 15, true)
		if err != nil {
			t.Fatalf("trial %d: ExecSequential: %v", trial, err)
		}
		got, err := kcore.ExecSequential(topo, splits, plans, order, true)
		if err != nil {
			t.Fatalf("trial %d: kcore.ExecSequential: %v", trial, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: K=1 sequential result diverges\n got %+v\nwant %+v", trial, got, want)
		}
	}
}

// TestKScheduleValidate: a K-core run takes one valid plan per core.
func TestKScheduleValidate(t *testing.T) {
	d := mustMatrix(t, [][]int64{{1, 0}, {0, 1}})
	two, _ := kcore.Uniform(2, 5)
	split, _ := kcore.SplitGreedy(d, two)
	plans := []ocs.CircuitSchedule{{{Perm: []int{0, 1}, Dur: 1}}, {{Perm: []int{1, 0}, Dur: 1}, {Perm: []int{0, 1}, Dur: 1}}}
	if _, err := kcore.Exec(two, split, plans); err != nil {
		t.Errorf("valid plans rejected: %v", err)
	}
	three, _ := kcore.Uniform(3, 5)
	if _, err := kcore.Exec(three, split, plans); !errors.Is(err, ocs.ErrInvalidAssignment) {
		t.Errorf("wrong core count: err = %v", err)
	}
	plans[1] = ocs.CircuitSchedule{{Perm: []int{0, 0}, Dur: 1}}
	if _, err := kcore.Exec(two, split, plans); !errors.Is(err, ocs.ErrInvalidAssignment) {
		t.Errorf("invalid per-core schedule: err = %v", err)
	}
}

// randomDemand fills about 40% of an n×n matrix.
func randomDemand(rng *rand.Rand, n int) *matrix.Matrix {
	d, _ := matrix.New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.4 {
				d.Set(i, j, 1+rng.Int63n(50))
			}
		}
	}
	if d.IsZero() {
		d.Set(0, 0, 1)
	}
	return d
}
