package builtin

import (
	"context"
	"reflect"
	"testing"

	"reco/internal/algo"
	"reco/internal/core"
	"reco/internal/eclipse"
	"reco/internal/lpiigb"
	"reco/internal/matrix"
	"reco/internal/ocs"
	"reco/internal/ordering"
	"reco/internal/solstice"
	"reco/internal/sunflow"
	"reco/internal/tms"
)

// legacySequential reproduces recosim's historical per-coflow dispatch: one
// circuit schedule per coflow from build, executed back-to-back by
// ocs.ExecSequential in the given order (identity if nil).
func legacySequential(t *testing.T, ds []*matrix.Matrix, delta int64,
	order []int, build func(d *matrix.Matrix) (ocs.CircuitSchedule, error)) ocs.SeqResult {
	t.Helper()
	schedules := make([]ocs.CircuitSchedule, len(ds))
	for k, d := range ds {
		cs, err := build(d)
		if err != nil {
			t.Fatalf("legacy build coflow %d: %v", k, err)
		}
		schedules[k] = cs
	}
	if order == nil {
		order = identity(len(ds))
	}
	seq, err := ocs.ExecSequential(ds, schedules, order, delta, true)
	if err != nil {
		t.Fatalf("legacy exec: %v", err)
	}
	return seq
}

func registrySchedule(t *testing.T, name string, req algo.Request) *algo.Result {
	t.Helper()
	res, err := algo.MustGet(name).Schedule(context.Background(), req)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

// TestDifferentialSequentialAlgorithms: the registry's per-coflow schedulers
// are byte-identical to the inline build+ExecSequential paths they replaced.
func TestDifferentialSequentialAlgorithms(t *testing.T) {
	req := conformanceRequest(t)
	ds, delta := req.Demands, req.Delta
	cases := []struct {
		name  string
		order []int
		build func(d *matrix.Matrix) (ocs.CircuitSchedule, error)
	}{
		{algo.NameRecoSin, nil, func(d *matrix.Matrix) (ocs.CircuitSchedule, error) {
			return core.RecoSin(d, delta)
		}},
		{algo.NameSolstice, nil, func(d *matrix.Matrix) (ocs.CircuitSchedule, error) {
			return solstice.Schedule(context.Background(), d)
		}},
		{algo.NameSEBFSolstice, ordering.SEBF(ds), func(d *matrix.Matrix) (ocs.CircuitSchedule, error) {
			return solstice.Schedule(context.Background(), d)
		}},
		{algo.NameTMSBvN, nil, func(d *matrix.Matrix) (ocs.CircuitSchedule, error) {
			return tms.ScheduleBvN(context.Background(), d)
		}},
		{algo.NameHelios, nil, func(d *matrix.Matrix) (ocs.CircuitSchedule, error) {
			return tms.ScheduleHelios(context.Background(), d, HeliosSlotFactor*delta)
		}},
		{algo.NameEclipse, nil, func(d *matrix.Matrix) (ocs.CircuitSchedule, error) {
			return eclipse.Schedule(context.Background(), d, delta)
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			want := legacySequential(t, ds, delta, tc.order, tc.build)
			got := registrySchedule(t, tc.name, req)
			if !reflect.DeepEqual(got.CCTs, want.CCTs) {
				t.Errorf("CCTs differ: registry %v, legacy %v", got.CCTs, want.CCTs)
			}
			if got.Reconfigs != want.Reconfigs {
				t.Errorf("Reconfigs differ: registry %d, legacy %d", got.Reconfigs, want.Reconfigs)
			}
			if !reflect.DeepEqual(got.Flows, want.Flows) {
				t.Errorf("flow schedules differ")
			}
		})
	}
}

// TestDifferentialRecoMul: the registry's reco-mul is the core pipeline,
// byte for byte.
func TestDifferentialRecoMul(t *testing.T) {
	req := conformanceRequest(t)
	want, err := core.ScheduleMulCtx(context.Background(), req.Demands, req.Weights, req.Delta, req.C)
	if err != nil {
		t.Fatalf("legacy reco-mul: %v", err)
	}
	got := registrySchedule(t, algo.NameRecoMul, req)
	if !reflect.DeepEqual(got.CCTs, want.CCTs) || got.Reconfigs != want.Reconfigs ||
		!reflect.DeepEqual(got.Flows, want.Flows) {
		t.Errorf("registry reco-mul diverges from core.ScheduleMul")
	}
}

// TestDifferentialLPII: both LP-II-GB variants match the lpiigb package.
func TestDifferentialLPII(t *testing.T) {
	req := conformanceRequest(t)
	seq, err := lpiigb.ScheduleSequentialCtx(context.Background(), req.Demands, req.Weights, req.Delta, true)
	if err != nil {
		t.Fatalf("legacy lp-ii-gb: %v", err)
	}
	got := registrySchedule(t, algo.NameLPIIGB, req)
	if !reflect.DeepEqual(got.CCTs, seq.CCTs) || got.Reconfigs != seq.Reconfigs ||
		!reflect.DeepEqual(got.Flows, seq.Flows) {
		t.Errorf("registry lp-ii-gb diverges from lpiigb.ScheduleSequential")
	}

	grp, err := lpiigb.ScheduleCtx(context.Background(), req.Demands, req.Weights, req.Delta, true)
	if err != nil {
		t.Fatalf("legacy lp-ii-gb-group: %v", err)
	}
	gotG := registrySchedule(t, algo.NameLPIIGBGroup, req)
	if !reflect.DeepEqual(gotG.CCTs, grp.CCTs) || gotG.Reconfigs != grp.Reconfigs ||
		!reflect.DeepEqual(gotG.Flows, grp.Flows) {
		t.Errorf("registry lp-ii-gb-group diverges from lpiigb.Schedule")
	}
}

// TestDifferentialLPIIGBIsTMSPerCoflow: on one coflow the LP order has
// nothing to choose, and LP-II-GB is what the paper means by it, first-fit
// BvN per coflow: the same schedule as tms-bvn, flow for flow.
func TestDifferentialLPIIGBIsTMSPerCoflow(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		req := conformanceDraw(t, seed)
		for k, d := range req.Demands {
			one := req
			one.Demands, one.Weights = []*matrix.Matrix{d}, []float64{1}
			want := registrySchedule(t, algo.NameTMSBvN, one)
			got := registrySchedule(t, algo.NameLPIIGB, one)
			if !reflect.DeepEqual(got.CCTs, want.CCTs) || got.Reconfigs != want.Reconfigs ||
				!reflect.DeepEqual(got.Flows, want.Flows) {
				t.Errorf("seed %d coflow %d: lp-ii-gb %v/%d (%d flows), tms-bvn %v/%d (%d flows)", seed, k,
					got.CCTs, got.Reconfigs, len(got.Flows), want.CCTs, want.Reconfigs, len(want.Flows))
			}
		}
	}
}

// TestDifferentialSunflow: cumulative back-to-back Sunflow runs match the
// registry adapter.
func TestDifferentialSunflow(t *testing.T) {
	req := conformanceRequest(t)
	var now int64
	wantCCTs := make([]int64, len(req.Demands))
	wantReconf := 0
	for k, d := range req.Demands {
		r, err := sunflow.Schedule(context.Background(), d, req.Delta)
		if err != nil {
			t.Fatalf("legacy sunflow coflow %d: %v", k, err)
		}
		now += r.CCT
		wantCCTs[k] = now
		wantReconf += r.Establishments
	}
	got := registrySchedule(t, algo.NameSunflow, req)
	if !reflect.DeepEqual(got.CCTs, wantCCTs) || got.Reconfigs != wantReconf {
		t.Errorf("registry sunflow diverges: got %v/%d, want %v/%d",
			got.CCTs, got.Reconfigs, wantCCTs, wantReconf)
	}
}
