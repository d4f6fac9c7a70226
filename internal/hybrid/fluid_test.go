package hybrid

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"reco/internal/matrix"
)

func randDemand(rng *rand.Rand, n int) *matrix.Matrix {
	d, _ := matrix.New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			switch {
			case rng.Float64() < 0.2:
				d.Set(i, j, 1000+rng.Int63n(3000)) // elephants
			case rng.Float64() < 0.3:
				d.Set(i, j, 1+rng.Int63n(80)) // mice
			}
		}
	}
	return d
}

func TestScheduleFluidValidation(t *testing.T) {
	d := mustMatrix(t, [][]int64{{1}})
	for _, cfg := range []FluidConfig{
		{Delta: -1},
		{Delta: 1, Threshold: -1},
		{Delta: 1, ElecFrac: -0.1},
		{Delta: 1, ElecFrac: 1.5},
		{Delta: 1, ElecFrac: math.NaN()}, // no v < 0 || v > 1 test catches it
		{Delta: 1, ElecFrac: math.Inf(1)},
		{Delta: 1, Policy: Policy(99)},
	} {
		if _, err := ScheduleFluid(context.Background(), d, cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("config %+v accepted: %v", cfg, err)
		}
	}
}

// TestScheduleFluidFractionZeroMatchesLegacy is the differential the issue
// demands: with electrical fraction 0 the fluid model routes everything
// optical and must reproduce the legacy Split + Reco-Sin path — which at
// threshold 0 also sends the whole coflow to the OCS — exactly, for every
// policy, on 40 seeded workloads.
func TestScheduleFluidFractionZeroMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const delta = 100
	for trial := 0; trial < 40; trial++ {
		d := randDemand(rng, 4+rng.Intn(12))
		if d.IsZero() {
			continue
		}
		legacy, err := Schedule(context.Background(), d, Config{Delta: delta, Threshold: 0, PacketSlowdown: 10})
		if err != nil {
			t.Fatalf("trial %d legacy: %v", trial, err)
		}
		for _, pol := range []Policy{PolicyStatic, PolicyThreshold, PolicyBalance} {
			fluid, err := ScheduleFluid(context.Background(), d, FluidConfig{
				Delta: delta, Threshold: 4 * delta, ElecFrac: 0, Policy: pol,
			})
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, pol, err)
			}
			if fluid.CCT != legacy.CCT || fluid.OCSReconfigs != legacy.OCSReconfigs {
				t.Fatalf("trial %d %v: fluid CCT %d / %d reconfigs, legacy %d / %d",
					trial, pol, fluid.CCT, fluid.OCSReconfigs, legacy.CCT, legacy.OCSReconfigs)
			}
			if fluid.ElecDemand != 0 || fluid.ElecCCT != 0 || fluid.ElecHelped != 0 {
				t.Fatalf("trial %d %v: dark electrical fabric carried demand: %+v", trial, pol, fluid)
			}
		}
	}
}

// TestScheduleFluidJointNeverWorse: on the same partition, letting the
// electrical fabric help optical residuals can only remove circuit work,
// so PolicyThreshold's CCT is never above PolicyStatic's.
func TestScheduleFluidJointNeverWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const delta = 100
	for trial := 0; trial < 30; trial++ {
		d := randDemand(rng, 4+rng.Intn(10))
		if d.IsZero() {
			continue
		}
		for _, frac := range []float64{0.05, 0.1, 0.2, 0.5} {
			cfg := FluidConfig{Delta: delta, Threshold: 4 * delta, ElecFrac: frac}
			cfg.Policy = PolicyStatic
			static, err := ScheduleFluid(context.Background(), d, cfg)
			if err != nil {
				t.Fatalf("trial %d static: %v", trial, err)
			}
			cfg.Policy = PolicyThreshold
			joint, err := ScheduleFluid(context.Background(), d, cfg)
			if err != nil {
				t.Fatalf("trial %d joint: %v", trial, err)
			}
			if joint.CCT > static.CCT {
				t.Fatalf("trial %d frac %v: joint CCT %d > static %d", trial, frac, joint.CCT, static.CCT)
			}
			if static.ElecHelped != 0 {
				t.Fatalf("trial %d: static policy helped optically-assigned demand: %+v", trial, static)
			}
		}
	}
}

// TestScheduleFluidConservation: every policy drains exactly the demand it
// was given — assignment totals cover the coflow and the run completes.
func TestScheduleFluidConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		d := randDemand(rng, 4+rng.Intn(10))
		if d.IsZero() {
			continue
		}
		orig := d.Clone()
		for _, pol := range []Policy{PolicyStatic, PolicyThreshold, PolicyBalance} {
			res, err := ScheduleFluid(context.Background(), d, FluidConfig{
				Delta: 100, Threshold: 400, ElecFrac: 0.1, Policy: pol,
			})
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, pol, err)
			}
			if res.OCSDemand+res.ElecDemand != d.Total() {
				t.Fatalf("trial %d %v: assignment loses demand: %+v vs total %d", trial, pol, res, d.Total())
			}
			if res.CCT <= 0 {
				t.Fatalf("trial %d %v: non-positive CCT %d", trial, pol, res.CCT)
			}
			if res.CCT < res.OCSCCT || res.CCT < res.ElecCCT {
				t.Fatalf("trial %d %v: CCT below a fabric finish: %+v", trial, pol, res)
			}
		}
		if !d.Equal(orig) {
			t.Fatalf("trial %d: ScheduleFluid mutated its input", trial)
		}
	}
}

// TestScheduleFluidBalancePicksSensibleCutoff: the balance sweep reports
// the threshold it chose, and its partition is never worse (by CCT) than
// an arbitrary fixed threshold under the same joint service on a workload
// with a clear elephant/mice gap.
func TestScheduleFluidBalance(t *testing.T) {
	d := mustMatrix(t, [][]int64{
		{3000, 10, 0, 0},
		{0, 2500, 15, 0},
		{0, 0, 2800, 12},
		{9, 0, 0, 2600},
	})
	bal, err := ScheduleFluid(context.Background(), d, FluidConfig{Delta: 100, ElecFrac: 0.2, Policy: PolicyBalance})
	if err != nil {
		t.Fatalf("balance: %v", err)
	}
	if bal.Threshold <= 0 {
		t.Fatalf("balance chose cutoff %d, want a positive threshold separating the mice", bal.Threshold)
	}
	if bal.ElecDemand == 0 {
		t.Fatalf("balance routed nothing electrical on a gapped workload: %+v", bal)
	}
	// All-optical with no electrical help pays reconfigurations for the
	// mice; the balanced partition must avoid that.
	allOpt, err := ScheduleFluid(context.Background(), d, FluidConfig{Delta: 100, Threshold: 0, ElecFrac: 0.2, Policy: PolicyStatic})
	if err != nil {
		t.Fatalf("threshold 0: %v", err)
	}
	if bal.CCT > allOpt.CCT {
		t.Fatalf("balance CCT %d worse than unassisted all-optical %d", bal.CCT, allOpt.CCT)
	}
}

// TestScheduleFluidAllElectrical: with a cutoff above every entry and a
// joint policy, the OCS never reconfigures and the CCT is the electrical
// fabric's drain time.
func TestScheduleFluidAllElectrical(t *testing.T) {
	d := mustMatrix(t, [][]int64{
		{30, 0},
		{0, 20},
	})
	res, err := ScheduleFluid(context.Background(), d, FluidConfig{Delta: 100, Threshold: 1000, ElecFrac: 0.1, Policy: PolicyThreshold})
	if err != nil {
		t.Fatalf("ScheduleFluid: %v", err)
	}
	if res.OCSReconfigs != 0 || res.OCSCCT != 0 || res.OCSDemand != 0 {
		t.Fatalf("OCS side should be idle: %+v", res)
	}
	// Disjoint pairs drain in parallel at a tenth of a lane: ⌈30·10⌉ = 300.
	if res.ElecCCT != 300 || res.CCT != 300 {
		t.Fatalf("electrical CCT = %d (CCT %d), want 300", res.ElecCCT, res.CCT)
	}
}
