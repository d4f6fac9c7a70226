package experiments

import (
	"reco/internal/matrix"
	"reco/internal/parallel"
	"reco/internal/workload"
)

// singleWorkload generates the scaled single-coflow experiment workload.
func singleWorkload(cfg Config) ([]workload.Coflow, error) {
	return workload.Generate(workload.GenConfig{
		N:          cfg.SingleN,
		NumCoflows: cfg.SingleCoflows,
		Seed:       cfg.Seed,
		MinDemand:  cfg.C * cfg.Delta,
		MeanDemand: max(800, 2*cfg.C*cfg.Delta),
	})
}

// paperWorkload is singleWorkload at the paper's own scale (526 coflows, 150
// ports), used for the workload-statistics tables; the scheduling
// experiments use the scaled configurations in Config.
func paperWorkload(cfg Config) ([]workload.Coflow, error) {
	cfg.SingleN, cfg.SingleCoflows = 150, 526
	return singleWorkload(cfg)
}

// elephantGen is the generator configuration of every multi-coflow and
// online workload: flow sizes kept near the elephant floor c·δ. That is the
// regime the paper's minimum-demand assumption describes, and where
// start-time alignment (the whole point of Reco-Mul) operates.
func elephantGen(cfg Config, n, coflows int, seed int64) workload.GenConfig {
	return workload.GenConfig{
		N: n, NumCoflows: coflows, Seed: seed,
		MinDemand: cfg.C * cfg.Delta, MeanDemand: cfg.C * cfg.Delta,
	}
}

// miceWorkload is the single-coflow workload with real mice: a floor of 1
// tick, spread over the usual decades, so an elephant threshold has
// something to separate and an electrical fabric real mice to carry.
func miceWorkload(cfg Config, seed int64) ([]workload.Coflow, error) {
	return workload.Generate(workload.GenConfig{
		N: cfg.SingleN, NumCoflows: cfg.SingleCoflows, Seed: seed,
		MinDemand: 1, MeanDemand: max(cfg.Delta/50, 2), SizeSpread: 4,
	})
}

// classBatch is one density class's batch of demand matrices.
type classBatch struct {
	class workload.Class
	ds    []*matrix.Matrix
}

// classBatches draws SingleCoflows elephant-floor coflows at the
// multi-coflow fabric size from (Seed, salt) and keeps the first MulCoflows
// of each density class: one batch per class the draw contains, in
// classOrder.
func classBatches(cfg Config, salt int64) ([]classBatch, error) {
	coflows, err := workload.Generate(elephantGen(cfg, cfg.MulN, cfg.SingleCoflows, parallel.Seed(cfg.Seed, salt)))
	if err != nil {
		return nil, err
	}
	byClass := map[workload.Class][]*matrix.Matrix{}
	for _, c := range coflows {
		cl := workload.Classify(c.Demand)
		if len(byClass[cl]) < cfg.MulCoflows {
			byClass[cl] = append(byClass[cl], c.Demand)
		}
	}
	var out []classBatch
	for _, cl := range classOrder {
		if len(byClass[cl]) > 0 {
			out = append(out, classBatch{cl, byClass[cl]})
		}
	}
	return out, nil
}
