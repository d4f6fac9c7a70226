package reco_test

import (
	"context"
	"math/rand"
	"testing"

	"reco/internal/core"
	"reco/internal/lpiigb"
	"reco/internal/matrix"
	"reco/internal/ocs"
	"reco/internal/ordering"
	"reco/internal/packet"
	"reco/internal/schedule"
	"reco/internal/solstice"
	"reco/internal/sunflow"
	"reco/internal/tms"
	"reco/internal/workload"
)

// TestIntegrationAllSchedulersSatisfyModel runs every scheduler in the
// repository over one common workload and machine-checks the two model
// invariants on each output: the port constraint and demand satisfaction.
// This is the cross-module contract the whole evaluation rests on.
func TestIntegrationAllSchedulersSatisfyModel(t *testing.T) {
	const (
		n     = 20
		delta = 100
		c     = 4
	)
	coflows, err := workload.Generate(workload.GenConfig{
		N: n, NumCoflows: 14, Seed: 77, MinDemand: c * delta, MeanDemand: c * delta,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	ds := make([]*matrix.Matrix, len(coflows))
	for i, cf := range coflows {
		ds[i] = cf.Demand
	}

	check := func(name string, flows schedule.FlowSchedule, ccts []int64) {
		t.Helper()
		if err := flows.Validate(n, len(ds)); err != nil {
			t.Errorf("%s: port constraint: %v", name, err)
		}
		if err := flows.CheckDemand(ds); err != nil {
			t.Errorf("%s: demand: %v", name, err)
		}
		for k, cct := range ccts {
			if cct <= 0 {
				t.Errorf("%s: coflow %d has CCT %d", name, k, cct)
			}
		}
	}

	// Reco-Mul pipeline.
	mul, err := core.ScheduleMulCtx(context.Background(), ds, nil, delta, c)
	if err != nil {
		t.Fatalf("reco-mul: %v", err)
	}
	check("reco-mul", mul.Flows, mul.CCTs)

	// Per-coflow single schedulers executed sequentially.
	singles := map[string]func(*matrix.Matrix) (ocs.CircuitSchedule, error){
		"reco-sin": func(d *matrix.Matrix) (ocs.CircuitSchedule, error) { return core.RecoSin(d, delta) },
		"solstice": func(d *matrix.Matrix) (ocs.CircuitSchedule, error) { return solstice.Schedule(context.Background(), d) },
		"tms-bvn":  func(d *matrix.Matrix) (ocs.CircuitSchedule, error) { return tms.ScheduleBvN(context.Background(), d) },
		"helios": func(d *matrix.Matrix) (ocs.CircuitSchedule, error) {
			return tms.ScheduleHelios(context.Background(), d, 4*delta)
		},
	}
	order := ordering.SEBF(ds)
	for name, schedFn := range singles {
		schedules := make([]ocs.CircuitSchedule, len(ds))
		for k, d := range ds {
			cs, err := schedFn(d)
			if err != nil {
				t.Fatalf("%s coflow %d: %v", name, k, err)
			}
			schedules[k] = cs
		}
		seq, err := ocs.ExecSequential(ds, schedules, order, delta, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check(name, seq.Flows, seq.CCTs)
	}

	// LP-II-GB, both disciplines.
	lpSeq, err := lpiigb.ScheduleSequentialCtx(context.Background(), ds, nil, delta, true)
	if err != nil {
		t.Fatalf("lp-ii-gb: %v", err)
	}
	check("lp-ii-gb", lpSeq.Flows, lpSeq.CCTs)
	lpGroup, err := lpiigb.ScheduleCtx(context.Background(), ds, nil, delta, true)
	if err != nil {
		t.Fatalf("lp-ii-gb-group: %v", err)
	}
	check("lp-ii-gb-group", lpGroup.Flows, lpGroup.CCTs)

	// Sunflow per coflow (not-all-stop, no shared switch state between
	// coflows here: each is validated standalone).
	for k, d := range ds {
		res, err := sunflow.Schedule(context.Background(), d, delta)
		if err != nil {
			t.Fatalf("sunflow coflow %d: %v", k, err)
		}
		if err := res.Flows.Validate(n, 1); err != nil {
			t.Errorf("sunflow coflow %d: port constraint: %v", k, err)
		}
		if err := res.Flows.CheckDemand([]*matrix.Matrix{d}); err != nil {
			t.Errorf("sunflow coflow %d: demand: %v", k, err)
		}
	}
}

// TestIntegrationPacketVsOCSConsistency checks the relationship Reco-Mul is
// built on: its OCS schedule serves exactly the packet schedule's flows,
// with every flow at least as long in real time (reconfigurations only add
// delay) and each coflow's OCS completion within the Theorem 3 envelope of
// its packet completion when the minimum-demand assumption holds.
func TestIntegrationPacketVsOCSConsistency(t *testing.T) {
	const (
		n     = 16
		delta = 50
		c     = 9 // s = 3
	)
	coflows, err := workload.Generate(workload.GenConfig{
		N: n, NumCoflows: 10, Seed: 5, MinDemand: c * delta, MeanDemand: c * delta,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	ds := make([]*matrix.Matrix, len(coflows))
	for i, cf := range coflows {
		ds[i] = cf.Demand
	}
	order, err := ordering.PrimalDual(ds, nil)
	if err != nil {
		t.Fatalf("PrimalDual: %v", err)
	}
	sp, err := packet.ListSchedule(ds, order)
	if err != nil {
		t.Fatalf("ListSchedule: %v", err)
	}
	mul, err := core.RecoMul(sp, n, delta, c)
	if err != nil {
		t.Fatalf("RecoMul: %v", err)
	}
	if len(mul.Flows) != len(sp) {
		t.Fatalf("flow count changed: %d -> %d", len(sp), len(mul.Flows))
	}
	// Per-flow: transmission time preserved.
	type key struct{ in, out, coflow int }
	packetTrans := map[key]int64{}
	for _, f := range sp {
		packetTrans[key{f.In, f.Out, f.Coflow}] += f.Duration()
	}
	ocsTrans := map[key]int64{}
	for _, f := range mul.Flows {
		ocsTrans[key{f.In, f.Out, f.Coflow}] += f.Transmitted()
	}
	for k, v := range packetTrans {
		if ocsTrans[k] != v {
			t.Errorf("pair %+v transmitted %d, want %d", k, ocsTrans[k], v)
		}
	}
	// Per-coflow Theorem 3 envelope.
	bound := core.ApproxRatioMul(1, c)
	pCCTs := sp.CCTs(len(ds))
	oCCTs := mul.Flows.CCTs(len(ds))
	for k := range ds {
		if pCCTs[k] == 0 {
			continue
		}
		if ratio := float64(oCCTs[k]) / float64(pCCTs[k]); ratio > bound+1e-9 {
			t.Errorf("coflow %d: OCS/packet CCT ratio %.3f exceeds Theorem 3 bound %.3f", k, ratio, bound)
		}
	}
}

// TestIntegrationNormalizationBaselineOrdering pins the headline result on a
// seeded workload: Reco-Mul's total CCT beats both baselines'.
func TestIntegrationNormalizationBaselineOrdering(t *testing.T) {
	const (
		n     = 24
		delta = 100
		c     = 4
	)
	coflows, err := workload.Generate(workload.GenConfig{
		N: n, NumCoflows: 18, Seed: 13, MinDemand: c * delta, MeanDemand: c * delta,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	ds := make([]*matrix.Matrix, len(coflows))
	for i, cf := range coflows {
		ds[i] = cf.Demand
	}
	mul, err := core.ScheduleMulCtx(context.Background(), ds, nil, delta, c)
	if err != nil {
		t.Fatalf("reco-mul: %v", err)
	}
	lp, err := lpiigb.ScheduleSequentialCtx(context.Background(), ds, nil, delta, true)
	if err != nil {
		t.Fatalf("lp-ii-gb: %v", err)
	}
	schedules := make([]ocs.CircuitSchedule, len(ds))
	for k, d := range ds {
		if schedules[k], err = solstice.Schedule(context.Background(), d); err != nil {
			t.Fatalf("solstice coflow %d: %v", k, err)
		}
	}
	sebf, err := ocs.ExecSequential(ds, schedules, ordering.SEBF(ds), delta, true)
	if err != nil {
		t.Fatalf("sebf+solstice: %v", err)
	}
	sum := func(ccts []int64) (s int64) {
		for _, v := range ccts {
			s += v
		}
		return s
	}
	reco := sum(mul.CCTs)
	if lpSum := sum(lp.CCTs); lpSum < reco {
		t.Errorf("LP-II-GB total CCT %d beat Reco-Mul %d on the pinned workload", lpSum, reco)
	}
	if sebfSum := sum(sebf.CCTs); sebfSum < reco {
		t.Errorf("SEBF+Solstice total CCT %d beat Reco-Mul %d on the pinned workload", sebfSum, reco)
	}
}

// TestStressSweep hammers the full pipelines with thousands of random
// instances and machine-checks every invariant: demand satisfaction, the
// port constraint, and Theorem 2's factor-2 envelope. Skipped under -short.
func TestStressSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("stress sweep runs thousands of instances")
	}
	rng := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 1500; trial++ {
		n := 2 + rng.Intn(12)
		delta := int64(1 + rng.Intn(300))
		m, _ := matrix.New(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Float64() < rng.Float64() { // varying densities
					m.Set(i, j, 1+rng.Int63n(5000))
				}
			}
		}
		if m.IsZero() {
			continue
		}
		for name, fn := range map[string]func() (ocs.CircuitSchedule, error){
			"reco-sin": func() (ocs.CircuitSchedule, error) { return core.RecoSin(m, delta) },
			"solstice": func() (ocs.CircuitSchedule, error) { return solstice.Schedule(context.Background(), m) },
		} {
			cs, err := fn()
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			res, err := ocs.ExecAllStop(m, cs, delta)
			if err != nil {
				t.Fatalf("trial %d %s exec: %v", trial, name, err)
			}
			if err := res.Flows.CheckDemand([]*matrix.Matrix{m}); err != nil {
				t.Fatalf("trial %d %s demand: %v", trial, name, err)
			}
			if err := res.Flows.Validate(n, 1); err != nil {
				t.Fatalf("trial %d %s ports: %v", trial, name, err)
			}
			if name == "reco-sin" && res.CCT > 2*ocs.LowerBound(m, delta) {
				t.Fatalf("trial %d: Theorem 2 violated: %d > 2*%d", trial, res.CCT, ocs.LowerBound(m, delta))
			}
		}
	}
	for trial := 0; trial < 250; trial++ {
		n := 3 + rng.Intn(10)
		kk := 2 + rng.Intn(6)
		delta := int64(1 + rng.Intn(150))
		c := int64(1 + rng.Intn(9))
		var ds []*matrix.Matrix
		for k := 0; k < kk; k++ {
			m, _ := matrix.New(n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if rng.Float64() < 0.4 {
						m.Set(i, j, 1+rng.Int63n(30*delta))
					}
				}
			}
			ds = append(ds, m)
		}
		mul, err := core.ScheduleMulCtx(context.Background(), ds, nil, delta, c)
		if err != nil {
			t.Fatalf("mul trial %d: %v", trial, err)
		}
		if err := mul.Flows.Validate(n, kk); err != nil {
			t.Fatalf("mul trial %d ports: %v", trial, err)
		}
		if err := mul.Flows.CheckDemand(ds); err != nil {
			t.Fatalf("mul trial %d demand: %v", trial, err)
		}
		order, err := ordering.PrimalDual(ds, nil)
		if err != nil {
			t.Fatalf("mul trial %d order: %v", trial, err)
		}
		sp, err := packet.ListSchedule(ds, order)
		if err != nil {
			t.Fatalf("mul trial %d packet: %v", trial, err)
		}
		nas, err := core.RecoMulNAS(sp, n, delta, c)
		if err != nil {
			t.Fatalf("nas trial %d: %v", trial, err)
		}
		if err := nas.Flows.Validate(n, kk); err != nil {
			t.Fatalf("nas trial %d ports: %v", trial, err)
		}
		lp, err := lpiigb.ScheduleSequentialCtx(context.Background(), ds, nil, delta, true)
		if err != nil {
			t.Fatalf("lp trial %d: %v", trial, err)
		}
		if err := lp.Flows.CheckDemand(ds); err != nil {
			t.Fatalf("lp trial %d demand: %v", trial, err)
		}
	}
}
