package ocs_test

import (
	"context"
	"math/rand"
	"testing"

	"reco/internal/bvn"
	"reco/internal/core"
	"reco/internal/faults"
	"reco/internal/kcore"
	"reco/internal/matrix"
	"reco/internal/ocs"
	"reco/internal/ordering"
	"reco/internal/sim"
	"reco/internal/workload"
)

// benchDemand fills the given fraction of an n×n matrix.
func benchDemand(b *testing.B, n int, fill float64) *matrix.Matrix {
	rng := rand.New(rand.NewSource(int64(n)))
	d, err := matrix.New(n)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < fill {
				d.Set(i, j, 1+rng.Int63n(4000))
			}
		}
	}
	return d
}

// BenchmarkExec is the event loop in isolation, one sub-benchmark per way of
// entering it: the executor's share of a dense and of a sparse request, the
// not-all-stop model, a simulated replay under δ jitter and the K-core fold.
// Schedules are Reco-Sin's and built outside the timer.
func BenchmarkExec(b *testing.B) {
	const delta = 100
	plan := func(d *matrix.Matrix) ocs.CircuitSchedule {
		cs, err := core.RecoSin(d, delta)
		if err != nil {
			b.Fatal(err)
		}
		return cs
	}
	dense, sparse := benchDemand(b, 64, 0.9), benchDemand(b, 128, 0.02)
	densePlan, sparsePlan := plan(dense), plan(sparse)
	jitter, err := faults.Generate(faults.GenConfig{N: 64, Seed: 7, JitterBound: delta / 2})
	if err != nil {
		b.Fatal(err)
	}
	topo, err := kcore.Uniform(4, delta)
	if err != nil {
		b.Fatal(err)
	}
	split, err := kcore.SplitGreedy(dense, topo)
	if err != nil {
		b.Fatal(err)
	}
	plans := make([]ocs.CircuitSchedule, len(split))
	for c := range split {
		plans[c] = plan(split[c])
	}

	for _, bc := range []struct {
		name string
		run  func() error
	}{
		{"allstop-dense-n64", func() error { _, err := ocs.ExecAllStop(dense, densePlan, delta); return err }},
		{"allstop-sparse-n128", func() error { _, err := ocs.ExecAllStop(sparse, sparsePlan, delta); return err }},
		{"notallstop-n64", func() error { _, err := ocs.ExecNotAllStop(dense, densePlan, delta); return err }},
		{"faults-replay-n64", func() error { _, err := sim.RunFaults(dense, sim.NewReplay(densePlan), delta, jitter); return err }},
		{"kcore-k4-n64", func() error { _, err := kcore.Exec(topo, split, plans); return err }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExecSequential is LP-II-GB's execution: one first-fit BvN plan
// per coflow, run back to back in the LP-II order, cycling through four
// fig7/fig8-shaped batches (12 elephant coflows on n = 60 ports). Plans and
// orders are built outside the timer.
func BenchmarkExecSequential(b *testing.B) {
	const delta = 100
	type batch struct {
		ds    []*matrix.Matrix
		plans []ocs.CircuitSchedule
		order []int
	}
	batches := make([]batch, 4)
	for s := range batches {
		coflows, err := workload.Generate(workload.GenConfig{N: 60, NumCoflows: 12, Seed: int64(s + 1), MinDemand: 400, MeanDemand: 400})
		if err != nil {
			b.Fatal(err)
		}
		bt := &batches[s]
		for _, c := range coflows {
			terms, err := bvn.DecomposeCtx(context.Background(), matrix.Stuff(c.Demand), bvn.FirstFit)
			if err != nil {
				b.Fatal(err)
			}
			cs := make(ocs.CircuitSchedule, len(terms))
			for i, t := range terms {
				cs[i] = ocs.Assignment{Perm: t.Perm, Dur: t.Coef}
			}
			bt.ds, bt.plans = append(bt.ds, c.Demand), append(bt.plans, cs)
		}
		lp, err := ordering.LPII(bt.ds, nil)
		if err != nil {
			b.Fatal(err)
		}
		bt.order = lp.Order
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt := batches[i%len(batches)]
		if _, err := ocs.ExecSequential(bt.ds, bt.plans, bt.order, delta); err != nil {
			b.Fatal(err)
		}
	}
}
