package experiments

import (
	"fmt"

	"reco/internal/algo"
	"reco/internal/matrix"
)

// frontierKs is the term-bound sweep the frontier experiment publishes.
var frontierKs = []int{1, 2, 4, 8, 16}

// Frontier sweeps the BvN term bound k over per-density-class coflow
// batches, mapping the reconfiguration-vs-CCT frontier of the reco-sparse
// scheduler (docs/PERF.md). For each class and each k, every coflow in the
// batch is scheduled by the sparsity-bounded pipeline (stuff, k max–min
// terms via bvn.DecomposeK, full-drain residual cleanup) and executed
// under the all-stop model; the "full" row is the k = nnz limit — Solstice's
// complete unregularized decomposition — on the same batch. Reported per
// row: the batch's summed CCT and executed reconfigurations, plus both as
// ratios against the full decomposition. The shape that matters: at the
// knee (small k on sparse and normal classes) the sparse schedule performs
// several times fewer reconfigurations while its CCT stays within a small
// constant factor of — often below — the full decomposition's.
//
// Off the presentation order: see experimentList.
func Frontier(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:    "frontier",
		Title: fmt.Sprintf("sparse-decomposition frontier (reco-sparse k sweep vs full BvN, delta=%d)", cfg.Delta),
		Columns: []string{
			"cct", "reconfigs", "cct/full", "reconfigs/full",
		},
		Notes: []string{
			"summed all-stop CCT and executed reconfigurations of one per-density-class batch, one coflow at a time",
			"full = Solstice's complete unregularized decomposition, the k = nnz limit of the same pipeline",
		},
	}

	batches, err := classBatches(cfg, saltFrontier)
	if err != nil {
		return nil, fmt.Errorf("frontier: %w", err)
	}

	// batchRun plays every coflow of the batch alone on the switch — k
	// reco-sparse terms, or Solstice's full decomposition for k = 0 — and
	// sums CCTs and executed reconfigurations.
	type totals struct{ cct, reconfigs float64 }
	batchRun := func(b classBatch, k int) (totals, error) {
		name := algo.NameRecoSparse
		if k == 0 {
			name = algo.NameSolstice
		}
		var sum totals
		for _, d := range b.ds {
			res, err := runRow(name, algo.Request{Demands: []*matrix.Matrix{d}, Delta: cfg.Delta, Knobs: algo.Knobs{K: k}})
			if err != nil {
				return totals{}, fmt.Errorf("frontier %s k=%d: %w", className(b.class), k, err)
			}
			sum.cct += float64(res.CCTs[0])
			sum.reconfigs += float64(res.Reconfigs)
		}
		return sum, nil
	}

	// k = 0, the baseline every row of a class is normalized to, is column 0
	// of the (class, k) grid: it runs once per class.
	ks := append([]int{0}, frontierKs...)
	sweep, err := grid(cfg.workers(), len(batches), len(ks), func(ci, ki int) (totals, error) {
		return batchRun(batches[ci], ks[ki])
	})
	if err != nil {
		return nil, err
	}
	for ci, b := range batches {
		full := sweep[ci][0]
		for ki, k := range ks {
			label := fmt.Sprintf("%s/k=%d", className(b.class), k)
			if k == 0 {
				label = className(b.class) + "/full"
			}
			v := sweep[ci][ki]
			t.AddRow(label, v.cct, v.reconfigs, v.cct/full.cct, v.reconfigs/full.reconfigs)
		}
	}
	return t, nil
}
