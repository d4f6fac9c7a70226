package core

import (
	"errors"
	"math/rand"
	"testing"

	"reco/internal/matrix"
	"reco/internal/packet"
	"reco/internal/schedule"
)

func TestInjectDelaysValidation(t *testing.T) {
	sp := schedule.FlowSchedule{{Start: 0, End: 10, In: 0, Out: 0}}
	if _, err := InjectDelays(sp, 1, -1); !errors.Is(err, ErrBadParam) {
		t.Errorf("negative delta: %v", err)
	}
	if _, err := InjectDelays(sp, 0, 10); !errors.Is(err, ErrBadParam) {
		t.Errorf("n=0: %v", err)
	}
	gapped := schedule.FlowSchedule{{Start: 0, End: 10, Gap: 1, In: 0, Out: 0}}
	if _, err := InjectDelays(gapped, 1, 10); !errors.Is(err, ErrBadParam) {
		t.Errorf("gapped input: %v", err)
	}
	for _, bad := range []schedule.FlowSchedule{
		{{Start: 0, End: 10, In: 3, Out: 0}},
		{{Start: 0, End: 10, In: -1, Out: 0}}, // once emitted as it came
		{{Start: 0, End: 10, In: 0, Out: 0}, {Start: 5, End: 15, In: 0, Out: 1}},
	} {
		if _, err := InjectDelays(bad, 2, 10); !errors.Is(err, ErrBadParam) {
			t.Errorf("%+v: %v", bad, err)
		}
	}
}

func TestInjectDelaysZeroDelta(t *testing.T) {
	sp := schedule.FlowSchedule{{Start: 5, End: 10, In: 0, Out: 0, Coflow: 0}}
	res, err := InjectDelays(sp, 1, 0)
	if err != nil {
		t.Fatalf("InjectDelays: %v", err)
	}
	if res.Reconfigs != 0 || res.Flows[0] != sp[0] {
		t.Errorf("zero delta changed the schedule: %+v", res)
	}
}

func TestInjectDelaysCountsDistinctStarts(t *testing.T) {
	// Three distinct start instants across disjoint ports, one shared.
	sp := schedule.FlowSchedule{
		{Start: 0, End: 10, In: 0, Out: 0, Coflow: 0},
		{Start: 0, End: 10, In: 1, Out: 1, Coflow: 0}, // same instant: shared reconfig
		{Start: 20, End: 30, In: 0, Out: 0, Coflow: 1},
		{Start: 35, End: 40, In: 1, Out: 1, Coflow: 1},
	}
	res, err := InjectDelays(sp, 2, 5)
	if err != nil {
		t.Fatalf("InjectDelays: %v", err)
	}
	if res.Reconfigs != 3 {
		t.Errorf("Reconfigs = %d, want 3 (instants 0, 20, 35)", res.Reconfigs)
	}
	if err := res.Flows.Validate(2, 2); err != nil {
		t.Errorf("invalid schedule: %v", err)
	}
}

func TestInjectDelaysCircuitContinuationIsFree(t *testing.T) {
	// The second flow continues the exact circuit (0,0) the first used,
	// back-to-back: its start instant must not be charged a reconfiguration.
	sp := schedule.FlowSchedule{
		{Start: 0, End: 10, In: 0, Out: 0, Coflow: 0},
		{Start: 10, End: 25, In: 0, Out: 0, Coflow: 1},
	}
	res, err := InjectDelays(sp, 1, 5)
	if err != nil {
		t.Fatalf("InjectDelays: %v", err)
	}
	if res.Reconfigs != 1 {
		t.Errorf("Reconfigs = %d, want 1 (continuation is free)", res.Reconfigs)
	}
	// The continuing flow starts exactly when its predecessor ends.
	if res.Flows[1].Start != res.Flows[0].End {
		t.Errorf("continuation broken: %d != %d", res.Flows[1].Start, res.Flows[0].End)
	}
}

func TestInjectDelaysFreezesCrossingFlows(t *testing.T) {
	// A long flow spans another flow's start instant: the all-stop freeze
	// must appear as Gap on the long flow.
	sp := schedule.FlowSchedule{
		{Start: 0, End: 100, In: 0, Out: 0, Coflow: 0},
		{Start: 50, End: 80, In: 1, Out: 1, Coflow: 1},
	}
	res, err := InjectDelays(sp, 2, 7)
	if err != nil {
		t.Fatalf("InjectDelays: %v", err)
	}
	var long schedule.FlowInterval
	for _, f := range res.Flows {
		if f.Coflow == 0 {
			long = f
		}
	}
	if long.Gap != 7 {
		t.Errorf("long flow Gap = %d, want 7 (frozen once)", long.Gap)
	}
	if long.Transmitted() != 100 {
		t.Errorf("long flow transmitted %d, want 100", long.Transmitted())
	}
}

func TestInjectDelaysMatchesRecoMulOnAlignedInput(t *testing.T) {
	// If the packet schedule's starts are already aligned to the grid and
	// conflict-free, RecoMul and InjectDelays charge comparable
	// reconfiguration counts (RecoMul may still stretch start times).
	rng := rand.New(rand.NewSource(31))
	n := 10
	var ds []*matrix.Matrix
	for k := 0; k < 4; k++ {
		m, _ := matrix.New(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.3 {
					m.Set(i, j, 400+rng.Int63n(800))
				}
			}
		}
		ds = append(ds, m)
	}
	sp, err := packet.ListSchedule(ds, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatalf("ListSchedule: %v", err)
	}
	aligned, err := RecoMul(sp, n, 100, 4)
	if err != nil {
		t.Fatalf("RecoMul: %v", err)
	}
	naive, err := InjectDelays(sp, n, 100)
	if err != nil {
		t.Fatalf("InjectDelays: %v", err)
	}
	if aligned.Reconfigs > naive.Reconfigs {
		t.Errorf("start-time regularization increased reconfigurations: %d > %d",
			aligned.Reconfigs, naive.Reconfigs)
	}
	if err := naive.Flows.Validate(n, len(ds)); err != nil {
		t.Errorf("naive schedule invalid: %v", err)
	}
	if err := naive.Flows.CheckDemand(ds); err != nil {
		t.Errorf("naive schedule demand: %v", err)
	}
}
