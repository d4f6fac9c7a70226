package sim_test

import (
	"errors"
	"math/rand"
	"testing"

	"reco/internal/core"
	"reco/internal/kcore"
	"reco/internal/matrix"
	"reco/internal/ocs"
)

// The K-core executor is internal/kcore's (every core is one single-switch
// run on its share); these tests stay in this directory, under the names the
// suite has always listed them by.

func kDemand(t *testing.T, rng *rand.Rand, n int) *matrix.Matrix {
	t.Helper()
	d, err := matrix.New(n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.5 {
				d.Set(i, j, 10+rng.Int63n(90))
			}
		}
	}
	if d.IsZero() {
		d.Set(0, 0, 10)
	}
	return d
}

func kPlan(t *testing.T, d *matrix.Matrix, delta int64) ocs.CircuitSchedule {
	t.Helper()
	cs, err := core.RecoSin(d, delta)
	if err != nil {
		t.Fatalf("RecoSin: %v", err)
	}
	return cs
}

// TestRunKParallelCores runs a seeded demand split and planned per core:
// everything drains, each core's own flows keep the single-switch port
// constraint, and the fabric CCT is the slowest core's.
func TestRunKParallelCores(t *testing.T) {
	n := 8
	rng := rand.New(rand.NewSource(52))
	d := kDemand(t, rng, n)
	delta := int64(15)
	topo, err := kcore.Uniform(2, delta)
	if err != nil {
		t.Fatal(err)
	}
	split, err := kcore.SplitGreedy(d, topo)
	if err != nil {
		t.Fatal(err)
	}
	plans := []ocs.CircuitSchedule{kPlan(t, split[0], delta), kPlan(t, split[1], delta)}
	kr, err := kcore.Exec(topo, split, plans)
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	var moved int64
	for _, f := range kr.Flows {
		moved += f.End - f.Start
	}
	if moved != d.Total() {
		t.Errorf("flows moved %d units, want %d", moved, d.Total())
	}
	slowest := int64(0)
	for c, r := range kr.PerCore {
		if err := r.Flows.Validate(n, 1); err != nil {
			t.Errorf("core %d flows violate port constraint: %v", c, err)
		}
		if r.CCT > slowest {
			slowest = r.CCT
		}
	}
	if kr.CCT != slowest {
		t.Errorf("CCT = %d, want slowest core %d", kr.CCT, slowest)
	}
}

// TestRunKRejectsBadInput checks that the K-core executor refuses a split or
// plan list that does not match the topology, and shares of two dimensions.
func TestRunKRejectsBadInput(t *testing.T) {
	n := 4
	d, _ := matrix.New(n)
	d.Set(0, 1, 5)
	topo, _ := kcore.Uniform(2, 10)
	split, _ := kcore.SplitGreedy(d, topo)
	plans := []ocs.CircuitSchedule{{{Perm: []int{1, -1, -1, -1}, Dur: 5}}, nil}

	if _, err := kcore.Exec(topo, split[:1], plans); !errors.Is(err, ocs.ErrInvalidAssignment) {
		t.Errorf("short split: err = %v, want ErrInvalidAssignment", err)
	}
	if _, err := kcore.Exec(topo, split, plans[:1]); !errors.Is(err, ocs.ErrInvalidAssignment) {
		t.Errorf("short plans: err = %v, want ErrInvalidAssignment", err)
	}
	wide, _ := matrix.New(n + 1)
	if _, err := kcore.Exec(topo, []*matrix.Matrix{split[0], wide}, plans); !errors.Is(err, ocs.ErrInvalidAssignment) {
		t.Errorf("shares of two dimensions: err = %v, want ErrInvalidAssignment", err)
	}
	if _, err := kcore.Exec(topo, split, plans); err != nil {
		t.Errorf("matching split and plans: %v", err)
	}
}
