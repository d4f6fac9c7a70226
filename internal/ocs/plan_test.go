package ocs_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"reco/internal/bvn"
	"reco/internal/matrix"
	"reco/internal/ocs"
)

// The tests here play max–min BvN plans. internal/bvn hands its terms out as
// this package's assignments, so they live in the external test package.

// TestExecSequentialWithoutFlows: a run that records no flows reports the
// same CCTs, reconfigurations and time split as one that does, and leaves
// Flows nil.
func TestExecSequentialWithoutFlows(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(10)
		ds := make([]*matrix.Matrix, 1+rng.Intn(4))
		schedules := make([]ocs.CircuitSchedule, len(ds))
		for k := range ds {
			ds[k], _ = matrix.New(n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if rng.Intn(2) == 0 {
						ds[k].Set(i, j, 1+rng.Int63n(100))
					}
				}
			}
			terms, err := bvn.DecomposeCtx(context.Background(), matrix.Stuff(ds[k]), bvn.MaxMin)
			if err != nil {
				t.Fatal(err)
			}
			schedules[k] = terms
		}
		order := rng.Perm(len(ds))
		with, err := ocs.ExecSequential(ds, schedules, order, 7, true)
		if err != nil {
			t.Fatal(err)
		}
		without, err := ocs.ExecSequential(ds, schedules, order, 7, false)
		if err != nil {
			t.Fatal(err)
		}
		if without.Flows != nil {
			t.Fatalf("trial %d: %d flows recorded without flows", trial, len(without.Flows))
		}
		with.Flows = nil
		if !reflect.DeepEqual(with, without) {
			t.Fatalf("trial %d: %+v with flows, %+v without", trial, with, without)
		}
	}
}

// randomPlan builds a complete circuit schedule for d by stuffing it to a
// doubly stochastic matrix and decomposing with MaxMin BvN.
func randomPlan(t *testing.T, d *matrix.Matrix) ocs.CircuitSchedule {
	t.Helper()
	terms, err := bvn.DecomposeCtx(context.Background(), matrix.StuffPreferNonZero(d), bvn.MaxMin)
	if err != nil {
		t.Fatalf("bvn.Decompose: %v", err)
	}
	return terms
}

// TestCoreExecUnitBandwidth pins Exec on a unit-bandwidth core that keeps
// flows to ExecAllStop — the shared drain loop must not change the
// unit-bandwidth semantics — and the same core keeping no flows to the
// same result without them.
func TestCoreExecUnitBandwidth(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		d := randomDemand(rng, 10)
		cs := randomPlan(t, d)
		want, err1 := ocs.ExecAllStop(d, cs, 25)
		got, err2 := ocs.Core{Delta: 25, Bandwidth: 1, Flows: true}.Exec(d, cs)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("trial %d: error mismatch %v vs %v", trial, err1, err2)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: bw=1 result diverges", trial)
		}
		bare, err3 := ocs.Core{Delta: 25, Bandwidth: 1}.Exec(d, cs)
		if (err1 == nil) != (err3 == nil) {
			t.Fatalf("trial %d: error mismatch %v vs %v without flows", trial, err1, err3)
		}
		want.Flows = nil
		if !reflect.DeepEqual(bare, want) {
			t.Fatalf("trial %d: a core keeping no flows diverges beyond them", trial)
		}
	}
}
