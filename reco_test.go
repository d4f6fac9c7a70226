package reco_test

import (
	"errors"
	"testing"

	"reco"
	"reco/internal/algo"
	"reco/internal/online"
)

func TestScheduleSingleFacade(t *testing.T) {
	d, err := reco.DemandFromRows([][]int64{
		{104, 109, 102},
		{103, 105, 107},
		{108, 101, 106},
	})
	if err != nil {
		t.Fatalf("DemandFromRows: %v", err)
	}
	res, err := reco.ScheduleSingle(d, 100)
	if err != nil {
		t.Fatalf("ScheduleSingle: %v", err)
	}
	if res.CCT != 618 {
		t.Errorf("CCT = %d, want 618 (Fig. 2 walkthrough)", res.CCT)
	}
	if res.Reconfigs != 3 {
		t.Errorf("Reconfigs = %d, want 3", res.Reconfigs)
	}
	if res.CCT > 2*res.LowerBound {
		t.Errorf("CCT %d exceeds 2x lower bound %d", res.CCT, res.LowerBound)
	}
	if len(res.Schedule) == 0 || len(res.Flows) == 0 {
		t.Error("schedule or flows empty")
	}
}

func TestScheduleMultipleFacade(t *testing.T) {
	coflows, err := reco.GenerateWorkload(16, 6, 3)
	if err != nil {
		t.Fatalf("GenerateWorkload: %v", err)
	}
	demands := make([]*reco.Demand, len(coflows))
	weights := make([]float64, len(coflows))
	for i, c := range coflows {
		demands[i] = c.Demand
		weights[i] = 1
	}
	res, err := reco.ScheduleMultiple(demands, weights, 100, 4)
	if err != nil {
		t.Fatalf("ScheduleMultiple: %v", err)
	}
	if len(res.CCTs) != len(demands) {
		t.Fatalf("got %d CCTs, want %d", len(res.CCTs), len(demands))
	}
	var sum float64
	for _, c := range res.CCTs {
		if c <= 0 {
			t.Errorf("non-positive CCT %d", c)
		}
		sum += float64(c)
	}
	if res.TotalWeightedCCT != sum {
		t.Errorf("TotalWeightedCCT = %v, want %v", res.TotalWeightedCCT, sum)
	}
	if res.Reconfigs <= 0 {
		t.Error("no reconfigurations reported")
	}
}

func TestFacadeHelpers(t *testing.T) {
	d, err := reco.NewDemand(2)
	if err != nil {
		t.Fatalf("NewDemand: %v", err)
	}
	d.Set(0, 0, 150)
	d.Set(1, 1, 80)
	if got := reco.LowerBound(d, 100); got != 150+100 {
		t.Errorf("LowerBound = %d, want 250", got)
	}
	reg := reco.Regularize(d, 100)
	if reg.At(0, 0) != 200 || reg.At(1, 1) != 100 {
		t.Errorf("Regularize: got %d,%d want 200,100", reg.At(0, 0), reg.At(1, 1))
	}
	if got := reco.ApproximationRatio(4, 4); got != 9 {
		t.Errorf("ApproximationRatio(4,4) = %v, want 9", got)
	}
}

func TestSimulateArrivalsFacade(t *testing.T) {
	coflows, err := reco.GenerateWorkload(12, 6, 4)
	if err != nil {
		t.Fatalf("GenerateWorkload: %v", err)
	}
	times, err := reco.ArrivalTimes(len(coflows), 1000, 9)
	if err != nil {
		t.Fatalf("ArrivalTimes: %v", err)
	}
	arrivals := make([]reco.Arrival, len(coflows))
	for i, c := range coflows {
		arrivals[i] = reco.Arrival{Demand: c.Demand, At: times[i], Weight: 1}
	}
	for _, policy := range []string{reco.PolicyFIFO, reco.PolicySEBF, reco.PolicyBatch, reco.PolicyDisjoint} {
		res, err := reco.SimulateArrivals(arrivals, policy, 100, 4)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if len(res.CCTs) != len(arrivals) {
			t.Errorf("%s: %d CCTs, want %d", policy, len(res.CCTs), len(arrivals))
		}
	}
	if _, err := reco.SimulateArrivals(arrivals, "bogus", 100, 4); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestScheduleHybridFacade(t *testing.T) {
	d, err := reco.DemandFromRows([][]int64{
		{800, 20},
		{0, 700},
	})
	if err != nil {
		t.Fatalf("DemandFromRows: %v", err)
	}
	res, err := reco.ScheduleHybrid(d, 100, 400, 10)
	if err != nil {
		t.Fatalf("ScheduleHybrid: %v", err)
	}
	if res.OCSDemand != 1500 || res.PacketDemand != 20 {
		t.Errorf("split wrong: %+v", res)
	}
	if _, err := reco.ScheduleHybrid(d, 100, 400, 0); err == nil {
		t.Error("bad slowdown accepted")
	}
}

// TestOverflowCoflowIsBadRequest: a coflow whose completion bound
// 2·(ρ + n·δ) does not fit in int64 ticks is refused as a bad request by
// every entry point that schedules it, not answered with a wrapped,
// negative CCT. One port carries 2·(2⁶²+7) ticks, so ρ alone overflows the
// bound at δ = 100.
func TestOverflowCoflowIsBadRequest(t *testing.T) {
	const big = 1<<62 + 7
	d, err := reco.DemandFromRows([][]int64{{big, big, 0}, {0, 0, 0}, {0, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	const delta = 100
	check := func(name string, err error, cct int64) {
		t.Helper()
		if !errors.Is(err, algo.ErrBadRequest) {
			t.Errorf("%s: err = %v (CCT %d), want algo.ErrBadRequest", name, err, cct)
		}
	}
	single, err := reco.ScheduleSingle(d, delta)
	var cct int64
	if single != nil {
		cct = single.CCT
	}
	check("ScheduleSingle", err, cct)

	multi, err := reco.ScheduleMultiple([]*reco.Demand{d}, nil, delta, 4)
	cct = 0
	if multi != nil {
		cct = multi.CCTs[0]
	}
	check("ScheduleMultiple", err, cct)

	on, err := online.Simulate([]online.Arrival{{Demand: d, Weight: 1}}, online.FIFO{}, delta, 4)
	cct = 0
	if on != nil {
		cct = on.CCTs[0]
	}
	check("online.Simulate", err, cct)
}
