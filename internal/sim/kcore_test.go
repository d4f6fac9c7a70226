package sim_test

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"reco/internal/core"
	"reco/internal/faults"
	"reco/internal/kcore"
	"reco/internal/matrix"
	"reco/internal/ocs"
	"reco/internal/sim"
	"reco/internal/topology"
)

// The K-core fault simulation is internal/kcore's (every core is one of this
// package's runs on its share); its tests stay in this directory, under the
// names the suite has always listed them by.

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

func TestRunKParallelCores(t *testing.T) {
	n := 8
	rng := rand.New(rand.NewSource(52))
	d := kDemand(t, rng, n)
	delta := int64(15)
	topo, err := topology.Uniform(n, 2, delta)
	if err != nil {
		t.Fatal(err)
	}
	split, err := kcore.SplitGreedy(d, topo)
	if err != nil {
		t.Fatal(err)
	}
	plans := []ocs.CircuitSchedule{kPlan(t, split[0], delta), kPlan(t, split[1], delta)}
	kr, err := kcore.RunRecover(topo, split, plans, nil)
	if err != nil {
		t.Fatalf("RunRecover: %v", err)
	}
	var moved int64
	for _, f := range kr.Flows {
		moved += f.End - f.Start
	}
	if moved != d.Total() {
		t.Errorf("flows moved %d units, want %d", moved, d.Total())
	}
	// Each core's own flow schedule must respect the single-switch port
	// constraint; the fabric CCT is the slower core.
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

func TestRunKRejectsBadInput(t *testing.T) {
	n := 4
	d, _ := matrix.New(n)
	d.Set(0, 1, 5)
	topo, _ := topology.Uniform(n, 2, 10)
	split, _ := kcore.SplitGreedy(d, topo)
	plans := []ocs.CircuitSchedule{{{Perm: []int{1, -1, -1, -1}, Dur: 5}}, nil}

	fast := topology.Topology{Ports: n, Cores: []topology.Core{{Bandwidth: 2, Delta: 10}}}
	if _, err := kcore.RunRecover(fast, split[:1], plans[:1], nil); !errors.Is(err, kcore.ErrTopology) {
		t.Errorf("bandwidth 2: err = %v, want ErrTopology", err)
	}
	if _, err := kcore.RunRecover(topo, split[:1], plans, nil); !errors.Is(err, ocs.ErrInvalidAssignment) {
		t.Errorf("short split: err = %v, want ErrInvalidAssignment", err)
	}
	if _, err := kcore.RunRecover(topo, split, plans[:1], nil); !errors.Is(err, ocs.ErrInvalidAssignment) {
		t.Errorf("short plans: err = %v, want ErrInvalidAssignment", err)
	}
	kfs := &faults.KSchedule{CoreEvents: []faults.CoreEvent{{Tick: 5, Core: 7, Down: true}}}
	if _, err := kcore.RunRecover(topo, split, plans, kfs); !errors.Is(err, faults.ErrBadSchedule) {
		t.Errorf("death of a core the fabric lacks: err = %v, want ErrBadSchedule", err)
	}
}

// TestRunKRecoverCoreDeath is the seeded core-death test: a core dies
// mid-epoch, recovery replans its residual onto the survivors, everything
// drains, and no surviving core ever violates the per-core port constraint.
func TestRunKRecoverCoreDeath(t *testing.T) {
	n := 10
	delta := int64(20)
	rng := rand.New(rand.NewSource(53))
	d := kDemand(t, rng, n)
	topo, err := topology.Uniform(n, 4, delta)
	if err != nil {
		t.Fatal(err)
	}
	split, err := kcore.SplitGreedy(d, topo)
	if err != nil {
		t.Fatal(err)
	}
	plans := make([]ocs.CircuitSchedule, 4)
	for c := range plans {
		plans[c] = kPlan(t, split[c], delta)
	}
	// Kill core 2 mid-epoch: after its first establishment is up but long
	// before its share drains.
	death := int64(delta + 5)
	kfs := &faults.KSchedule{CoreEvents: []faults.CoreEvent{{Tick: death, Core: 2, Down: true}}}

	kr, err := kcore.RunRecover(topo, split, plans, kfs)
	if err != nil {
		t.Fatalf("RunRecover: %v", err)
	}
	if !reflect.DeepEqual(kr.DeadCores, []int{2}) {
		t.Errorf("DeadCores = %v, want [2]", kr.DeadCores)
	}
	if kr.ReplannedTicks <= 0 {
		t.Error("no demand was replanned off the dead core")
	}
	// Everything must drain: dead core's pre-death flows + survivors.
	var moved int64
	for _, f := range kr.Flows {
		moved += f.End - f.Start
	}
	if moved != d.Total() {
		t.Errorf("flows moved %d units, want %d", moved, d.Total())
	}
	// The dead core stops at (or just after, if mid-reconfiguration) the
	// death tick and sends nothing past it.
	for _, f := range kr.PerCore[2].Flows {
		if f.End > death {
			t.Errorf("dead core transmitted past its death: flow ends at %d > %d", f.End, death)
		}
	}
	// Port constraint per core, including the survivors' appended replans.
	for c, r := range kr.PerCore {
		if err := r.Flows.Validate(n, 1); err != nil {
			t.Errorf("core %d flows violate port constraint: %v", c, err)
		}
	}
	// Replanned work cannot start before the death is known.
	if kr.CCT <= death {
		t.Errorf("CCT %d not past the death tick %d", kr.CCT, death)
	}

	// Determinism: the same inputs reproduce the same recovery bit for bit.
	again, err := kcore.RunRecover(topo, split, plans, kfs)
	if err != nil {
		t.Fatalf("second RunRecover: %v", err)
	}
	if !reflect.DeepEqual(kr, again) {
		t.Error("RunRecover is not deterministic")
	}
}

// TestRunKRecoverGeneratedFaults drives the full seeded path: GenerateK
// fabricates core deaths and the recovery still conserves demand.
func TestRunKRecoverGeneratedFaults(t *testing.T) {
	n := 8
	delta := int64(10)
	rng := rand.New(rand.NewSource(54))
	d := kDemand(t, rng, n)
	topo, err := topology.Uniform(n, 4, delta)
	if err != nil {
		t.Fatal(err)
	}
	split, err := kcore.SplitGreedy(d, topo)
	if err != nil {
		t.Fatal(err)
	}
	plans := make([]ocs.CircuitSchedule, 4)
	for c := range plans {
		plans[c] = kPlan(t, split[c], delta)
	}
	kfs, err := faults.GenerateK(faults.KGenConfig{
		N: n, K: 4, Seed: 11, Horizon: 200, CoreFailRate: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(kfs.CoreEvents) == 0 {
		t.Fatal("seed 11 generated no core deaths; pick another seed")
	}
	kr, err := kcore.RunRecover(topo, split, plans, kfs)
	if err != nil {
		t.Fatalf("RunRecover: %v", err)
	}
	var moved int64
	for _, f := range kr.Flows {
		moved += f.End - f.Start
	}
	if moved != d.Total() {
		t.Errorf("flows moved %d units, want %d", moved, d.Total())
	}
	for c, r := range kr.PerCore {
		if err := r.Flows.Validate(n, 1); err != nil {
			t.Errorf("core %d flows violate port constraint: %v", c, err)
		}
	}
}

// TestRunKRecoverNoFaults: with an empty fault plan the recovery path is the
// analytic K-core executor, keeping a log besides.
func TestRunKRecoverNoFaults(t *testing.T) {
	n := 6
	delta := int64(10)
	rng := rand.New(rand.NewSource(55))
	d := kDemand(t, rng, n)
	topo, err := topology.Uniform(n, 2, delta)
	if err != nil {
		t.Fatal(err)
	}
	split, err := kcore.SplitGreedy(d, topo)
	if err != nil {
		t.Fatal(err)
	}
	plans := []ocs.CircuitSchedule{kPlan(t, split[0], delta), kPlan(t, split[1], delta)}
	want, err := kcore.Exec(topo, split, plans)
	if err != nil {
		t.Fatal(err)
	}
	got, err := kcore.RunRecover(topo, split, plans, nil)
	if err != nil {
		t.Fatal(err)
	}
	for c := range got.PerCore {
		if len(got.PerCore[c].Log) != got.PerCore[c].Reconfigs {
			t.Errorf("core %d: %d log entries for %d reconfigurations", c, len(got.PerCore[c].Log), got.PerCore[c].Reconfigs)
		}
		got.PerCore[c].Log = nil
	}
	if !reflect.DeepEqual(*got, want) {
		t.Error("fault-free RunRecover diverges from Exec")
	}
}

func TestRunKRecoverAllCoresDead(t *testing.T) {
	n := 4
	d, _ := matrix.New(n)
	d.Set(0, 1, 50)
	d.Set(2, 3, 50)
	topo, _ := topology.Uniform(n, 2, 5)
	split, err := kcore.SplitGreedy(d, topo)
	if err != nil {
		t.Fatal(err)
	}
	plans := []ocs.CircuitSchedule{
		kPlanOrEmpty(t, split[0], 5),
		kPlanOrEmpty(t, split[1], 5),
	}
	kfs := &faults.KSchedule{CoreEvents: []faults.CoreEvent{
		{Tick: 1, Core: 0, Down: true},
		{Tick: 1, Core: 1, Down: true},
	}}
	_, err = kcore.RunRecover(topo, split, plans, kfs)
	if !errors.Is(err, sim.ErrUnservable) {
		t.Errorf("all cores dead: err = %v, want ErrUnservable", err)
	}
}

func kPlanOrEmpty(t *testing.T, d *matrix.Matrix, delta int64) ocs.CircuitSchedule {
	t.Helper()
	if d.IsZero() {
		return nil
	}
	return kPlan(t, d, delta)
}
