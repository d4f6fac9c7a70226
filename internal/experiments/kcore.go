package experiments

import (
	"context"
	"fmt"
	"slices"

	"reco/internal/kcore"
)

// kcoreWidths is the fabric-width sweep the kcore experiment publishes.
var kcoreWidths = []int{1, 2, 4, 8}

// KCore sweeps the K-core fabric width over per-density-class coflow
// batches (docs/TOPOLOGY.md): for each class and each K in {1,2,4,8}, the
// same batch is scheduled by the O(K)-approximation pipeline (SEBF order,
// greedy demand split, Reco-Sin per core share) and by the naive
// round-robin split. Reported per row: the batch makespan under each split,
// the round-robin/greedy ratio, and the batch's K-core lower bound
// (sum over coflows of ceil(rho/K) + ceil(tau/K)*delta). The shapes that
// matter: the greedy makespan is non-increasing in K within each class, and
// round-robin never beats greedy — size-blind cyclic dealing loads one core
// with the elephants the greedy split spreads out.
//
// Off the presentation order: see experimentList.
func KCore(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:    "kcore",
		Title: fmt.Sprintf("K-core fabric sweep (greedy vs round-robin split, delta=%d, c=%d)", cfg.Delta, cfg.C),
		Columns: []string{
			"greedy", "roundrobin", "rr/greedy", "LB",
		},
		Notes: []string{
			"makespan in ticks of one per-density-class batch, SEBF order, Reco-Sin per core share",
			"LB sums each coflow's K-core bound ceil(rho/K) + ceil(tau/K)*delta",
		},
	}

	batches, err := classBatches(cfg, saltKCore)
	if err != nil {
		return nil, fmt.Errorf("kcore: %w", err)
	}
	rows, err := grid(cfg.workers(), len(batches), len(kcoreWidths), func(ci, ki int) (Row, error) {
		cl, ds, k := className(batches[ci].class), batches[ci].ds, kcoreWidths[ki]
		topo, err := kcore.Uniform(k, cfg.Delta)
		if err != nil {
			return Row{}, fmt.Errorf("kcore %s K=%d: %w", cl, k, err)
		}
		makespan := func(strat kcore.Strategy) (float64, error) {
			batch, err := kcore.ScheduleBatch(context.Background(), ds, topo, strat)
			if err != nil {
				return 0, fmt.Errorf("kcore %s K=%d %s: %w", cl, k, strat, err)
			}
			return float64(slices.Max(batch.Seq.CCTs)), nil
		}
		greedy, err := makespan(kcore.Greedy)
		if err != nil {
			return Row{}, err
		}
		rr, err := makespan(kcore.RoundRobin)
		if err != nil {
			return Row{}, err
		}
		var lb int64
		for _, d := range ds {
			lb += kcore.LowerBound(d, topo)
		}
		return Row{
			Label: fmt.Sprintf("%s/K=%d", cl, k),
			Cells: []float64{greedy, rr, rr / greedy, float64(lb)},
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, perK := range rows {
		t.Rows = append(t.Rows, perK...)
	}
	return t, nil
}
