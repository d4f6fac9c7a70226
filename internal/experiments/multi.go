package experiments

import (
	"fmt"

	"reco/internal/algo"
	"reco/internal/core"
	"reco/internal/matrix"
	"reco/internal/ordering"
	"reco/internal/packet"
	"reco/internal/parallel"
	"reco/internal/stats"
	"reco/internal/workload"
)

// mixed is the pseudo-class meaning "all density levels together".
const mixed workload.Class = 0

// Per-experiment trial-stream salts: every experiment derives its trial
// generators from (cfg.Seed, salt, trialIndex...) via parallel.Seed, so no
// two experiments — and no two trials within one — ever share a random
// stream, no matter how the trials are scheduled across workers.
const (
	saltFig6 int64 = iota + 1
	saltFig7
	saltFig8
	saltFig9a
	saltFig9b
	saltAlign
	saltOnline
	saltOptics
	saltScale
	saltNAS
	saltAdmission
	saltKCore
	saltFrontier
	saltHybrid
)

func className(cl workload.Class) string {
	if cl == mixed {
		return "all"
	}
	return cl.String()
}

// mulBatch draws one batch of MulCoflows coflows of the requested class
// (mixed keeps the workload's natural composition) at the multi-coflow
// fabric size, by oversampling the generator and filtering: an attempt
// draws from a workload of max(4·MulCoflows, 64) coflows and stops as soon
// as the batch is full. Each attempt threads its own generator derived
// from (seed, attempt), so a batch is a pure function of its seed.
func mulBatch(cfg Config, seed int64, cl workload.Class) ([]*matrix.Matrix, error) {
	need := cfg.MulCoflows
	var out []*matrix.Matrix
	for attempt := 0; attempt < 64 && len(out) < need; attempt++ {
		err := workload.GenerateEach(parallel.Rand(seed, int64(attempt)),
			elephantGen(cfg, cfg.MulN, max(need*4, 64), 0),
			func(c workload.Coflow) bool {
				if cl == mixed || workload.Classify(c.Demand) == cl {
					out = append(out, c.Demand)
				}
				return len(out) < need
			})
		if err != nil {
			return nil, err
		}
	}
	if len(out) < need {
		return nil, fmt.Errorf("experiments: could only draw %d of %d %s coflows", len(out), need, className(cl))
	}
	return out, nil
}

// mixedBatch draws one mixed batch (the workload's natural class
// composition) of 3×MulCoflows coflows: the paper's per-class CCT figures
// slice one mixed run by coflow class, so mixed batches need enough normal
// and dense representatives.
func mixedBatch(cfg Config, seed int64) ([]*matrix.Matrix, error) {
	big := cfg
	big.MulCoflows = cfg.MulCoflows * 3
	return mulBatch(big, seed, mixed)
}

// classesOf tags each coflow with its density class.
func classesOf(ds []*matrix.Matrix) []workload.Class {
	out := make([]workload.Class, len(ds))
	for k, d := range ds {
		out[k] = workload.Classify(d)
	}
	return out
}

// mulOutcome is the result of running all multi-coflow algorithms on one
// batch.
type mulOutcome struct {
	classes                    []workload.Class
	recoCCTs, lpCCTs, sebfCCTs []int64
	recoReconf, lpReconf       int
	weights                    []float64
}

// runMulBatch schedules one batch with the registered Reco-Mul, LP-II-GB
// and (optionally) SEBF+Solstice schedulers under the all-stop model.
func runMulBatch(ds []*matrix.Matrix, w []float64, delta, c int64, withSEBF bool) (*mulOutcome, error) {
	req := algo.Request{Demands: ds, Weights: w, Delta: delta, C: c}
	reco, err := runRow(algo.NameRecoMul, req)
	if err != nil {
		return nil, err
	}
	lp, err := runRow(algo.NameLPIIGB, req)
	if err != nil {
		return nil, err
	}
	out := &mulOutcome{
		classes:    classesOf(ds),
		recoCCTs:   reco.CCTs,
		lpCCTs:     lp.CCTs,
		recoReconf: reco.Reconfigs,
		lpReconf:   lp.Reconfigs,
		weights:    w,
	}
	if withSEBF {
		seq, err := runRow(algo.NameSEBFSolstice, req)
		if err != nil {
			return nil, err
		}
		out.sebfCCTs = seq.CCTs
	}
	return out, nil
}

// weightedValues returns the per-coflow weighted CCT samples w_k·T_k.
func weightedValues(ccts []int64, w []float64) []float64 {
	out := make([]float64, len(ccts))
	for k, c := range ccts {
		wk := 1.0
		if k < len(w) {
			wk = w[k]
		}
		out[k] = wk * float64(c)
	}
	return out
}

// aggregateRatios computes the paper's normalized-CCT metrics over a set of
// batches: ratio of mean weighted CCTs and ratio of 95th percentiles,
// algorithm over Reco-Mul.
func aggregateRatios(algVals, recoVals []float64) (avg, p95 float64, err error) {
	algMean, err := stats.Mean(algVals)
	if err != nil {
		return 0, 0, err
	}
	recoMean, err := stats.Mean(recoVals)
	if err != nil {
		return 0, 0, err
	}
	algPs, err := stats.Percentiles(algVals, 95)
	if err != nil {
		return 0, 0, err
	}
	recoPs, err := stats.Percentiles(recoVals, 95)
	if err != nil {
		return 0, 0, err
	}
	return stats.Ratio(algMean, recoMean), stats.Ratio(algPs[0], recoPs[0]), nil
}

var mulClassOrder = []workload.Class{workload.Sparse, workload.Normal, workload.Dense, mixed}

func lpCCTs(o *mulOutcome) []int64   { return o.lpCCTs }
func sebfCCTs(o *mulOutcome) []int64 { return o.sebfCCTs }

// normalizedCCT pools, over outs, the weighted CCTs of alg and of Reco-Mul on
// the coflows of class cl (mixed keeps all) and returns aggregateRatios of
// the two pools. It fails when no batch holds a coflow of the class.
func normalizedCCT(outs []*mulOutcome, cl workload.Class, alg func(*mulOutcome) []int64) (avg, p95 float64, err error) {
	var algVals, recoVals []float64
	for _, o := range outs {
		algW := weightedValues(alg(o), o.weights)
		recoW := weightedValues(o.recoCCTs, o.weights)
		for k, class := range o.classes {
			if cl == mixed || class == cl {
				algVals = append(algVals, algW[k])
				recoVals = append(recoVals, recoW[k])
			}
		}
	}
	return aggregateRatios(algVals, recoVals)
}

// mixedBatches draws the MulBatches mixed batches of (Seed, salt), one trial
// per batch.
func mixedBatches(cfg Config, salt int64) ([][]*matrix.Matrix, error) {
	return parallel.Map(cfg.workers(), cfg.MulBatches, func(b int) ([]*matrix.Matrix, error) {
		return mixedBatch(cfg, parallel.Seed(cfg.Seed, salt, int64(b)))
	})
}

// runMixedBatches draws and schedules MulBatches mixed batches in parallel,
// one trial per batch, with per-trial seeds derived from (Seed, salt, b).
func runMixedBatches(cfg Config, salt int64, withSEBF bool) ([]*mulOutcome, error) {
	return parallel.Map(cfg.workers(), cfg.MulBatches, func(b int) (*mulOutcome, error) {
		ds, err := mixedBatch(cfg, parallel.Seed(cfg.Seed, salt, int64(b)))
		if err != nil {
			return nil, err
		}
		var w []float64
		if salt == saltFig6 {
			// Fig. 6 draws per-coflow weights uniformly from [0,1]; the
			// weight stream is separated from the demand stream by an extra
			// path element.
			wrng := parallel.Rand(cfg.Seed, salt, int64(b), 1)
			w = make([]float64, len(ds))
			for k := range w {
				w[k] = wrng.Float64()
			}
		}
		out, err := runMulBatch(ds, w, cfg.Delta, cfg.C, withSEBF)
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", b, err)
		}
		return out, nil
	})
}

// sweepMixed schedules, for each of n sweep points, the MulBatches mixed
// batches of (Seed, salt) drawn under that point's configuration at(i) —
// the same batch seeds at every point, so only the swept knob moves — as
// one (point, batch) trial grid.
func sweepMixed(cfg Config, salt int64, n int, at func(i int) Config) ([][]*mulOutcome, error) {
	return grid(cfg.workers(), n, cfg.MulBatches, func(i, b int) (*mulOutcome, error) {
		point := at(i)
		ds, err := mixedBatch(point, parallel.Seed(cfg.Seed, salt, int64(b)))
		if err != nil {
			return nil, err
		}
		out, err := runMulBatch(ds, nil, point.Delta, point.C, false)
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", b, err)
		}
		return out, nil
	})
}

// classBatchSums runs trial on MulBatches fresh batches of every
// mulClassOrder class — one (class, batch) trial grid, each batch drawn from
// (Seed, salt, class index, batch) — and returns, per class, the sums of the
// trial's columns over the class's batches.
func classBatchSums(cfg Config, salt int64, trial func(ds []*matrix.Matrix) ([]float64, error)) ([][]float64, error) {
	outs, err := grid(cfg.workers(), len(mulClassOrder), cfg.MulBatches, func(ci, b int) ([]float64, error) {
		cl := mulClassOrder[ci]
		ds, err := mulBatch(cfg, parallel.Seed(cfg.Seed, salt, int64(ci), int64(b)), cl)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", className(cl), err)
		}
		cols, err := trial(ds)
		if err != nil {
			return nil, fmt.Errorf("%s batch %d: %w", className(cl), b, err)
		}
		return cols, nil
	})
	if err != nil {
		return nil, err
	}
	sums := make([][]float64, len(outs))
	for ci, batches := range outs {
		sums[ci] = make([]float64, len(batches[0]))
		for _, cols := range batches {
			for c, v := range cols {
				sums[ci][c] += v
			}
		}
	}
	return sums, nil
}

// Fig6 reproduces Fig. 6: normalized weighted CCT of LP-II-GB against
// Reco-Mul, per density class and for the mixed workload, with weights drawn
// uniformly from [0,1].
func Fig6(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "fig6",
		Title:   fmt.Sprintf("Normalized weighted CCT: LP-II-GB / Reco-Mul (delta=%d, c=%d)", cfg.Delta, cfg.C),
		Columns: []string{"avg", "95p"},
		Notes:   []string{"paper: sparse 3.67(1.56), normal 2.54(2.01), dense 2.21(1.25), all 3.44(1.64) [derived from the reported improvements]"},
	}
	batches, err := runMixedBatches(cfg, saltFig6, false)
	if err != nil {
		return nil, fmt.Errorf("fig6: %w", err)
	}
	for _, cl := range mulClassOrder {
		avg, p95, err := normalizedCCT(batches, cl, lpCCTs)
		if err != nil {
			continue // class absent from the sampled batches
		}
		t.AddRow(className(cl), avg, p95)
	}
	return t, nil
}

// Fig7 reproduces Fig. 7: normalized unweighted CCT of LP-II-GB and
// SEBF+Solstice against Reco-Mul, per density class and mixed.
func Fig7(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "fig7",
		Title:   fmt.Sprintf("Normalized unweighted CCT over Reco-Mul (delta=%d, c=%d)", cfg.Delta, cfg.C),
		Columns: []string{"LPIIGB avg", "LPIIGB 95p", "SEBF+Sol avg", "SEBF+Sol 95p"},
		Notes:   []string{"paper: sparse 5.47(2.80)/8.87(6.56), normal+dense 2.52(1.91)/3.41(2.88), all 4.71(2.08)/8.04(5.67)"},
	}
	batches, err := runMixedBatches(cfg, saltFig7, true)
	if err != nil {
		return nil, fmt.Errorf("fig7: %w", err)
	}
	for _, cl := range mulClassOrder {
		lpAvg, lpP95, err := normalizedCCT(batches, cl, lpCCTs)
		if err != nil {
			continue // class absent from the sampled batches
		}
		sebfAvg, sebfP95, err := normalizedCCT(batches, cl, sebfCCTs)
		if err != nil {
			continue
		}
		t.AddRow(className(cl), lpAvg, lpP95, sebfAvg, sebfP95)
	}
	return t, nil
}

// Fig8 reproduces Fig. 8: total reconfiguration counts of Reco-Mul vs
// LP-II-GB, per density class and mixed.
func Fig8(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "fig8",
		Title:   fmt.Sprintf("Reconfigurations per batch: Reco-Mul vs LP-II-GB (delta=%d, c=%d)", cfg.Delta, cfg.C),
		Columns: []string{"Reco-Mul", "LPIIGB", "LPIIGB/Reco"},
		Notes:   []string{"paper ratios: sparse 4.37x, normal 2.56x, dense 1.48x, all 2.59x"},
	}
	totals, err := classBatchSums(cfg, saltFig8, func(ds []*matrix.Matrix) ([]float64, error) {
		out, err := runMulBatch(ds, nil, cfg.Delta, cfg.C, false)
		if err != nil {
			return nil, err
		}
		return []float64{float64(out.recoReconf), float64(out.lpReconf)}, nil
	})
	if err != nil {
		return nil, fmt.Errorf("fig8: %w", err)
	}
	n := float64(cfg.MulBatches)
	for ci, cl := range mulClassOrder {
		reco, lp := totals[ci][0], totals[ci][1]
		t.AddRow(className(cl), reco/n, lp/n, stats.Ratio(lp, reco))
	}
	return t, nil
}

// fig9aDeltas is the Fig. 9(a) sweep: 1 µs to 10 ms.
var fig9aDeltas = []int64{1, 10, 100, 1_000, 10_000}

// Fig9a reproduces Fig. 9(a): normalized mixed-workload CCT of LP-II-GB over
// Reco-Mul as the reconfiguration delay sweeps from 1 µs to 10 ms. As in the
// paper, one workload (generated at the default delta's elephant floor) is
// held fixed while the scheduling delta varies — at the millisecond deltas
// the minimum-demand assumption is deliberately violated, which is exactly
// the regime where the paper observes the advantage shrinking.
func Fig9a(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "fig9a",
		Title:   fmt.Sprintf("Normalized CCT (LP-II-GB / Reco-Mul) vs delta, mixed coflows (c=%d)", cfg.C),
		Columns: []string{"avg", "95p"},
		Notes:   []string{"paper: 1.61 (1us), 1.99 (10us), 3.74 (100us), 1.17 (1ms), 1.18 (10ms) - non-monotone, peaking near 100us"},
	}
	batches, err := mixedBatches(cfg, saltFig9a)
	if err != nil {
		return nil, fmt.Errorf("fig9a: %w", err)
	}
	// One trial per (delta, batch) pair over the shared workload.
	outs, err := grid(cfg.workers(), len(fig9aDeltas), len(batches), func(di, b int) (*mulOutcome, error) {
		return runMulBatch(batches[b], nil, fig9aDeltas[di], cfg.C, false)
	})
	if err != nil {
		return nil, fmt.Errorf("fig9a: %w", err)
	}
	for di, delta := range fig9aDeltas {
		avg, p95, err := normalizedCCT(outs[di], mixed, lpCCTs)
		if err != nil {
			return nil, fmt.Errorf("fig9a delta=%d: %w", delta, err)
		}
		t.AddRow(fmt.Sprintf("d=%d", delta), avg, p95)
	}
	return t, nil
}

// Fig9b reproduces Fig. 9(b): normalized mixed-workload CCT of LP-II-GB over
// Reco-Mul as the optical transmission threshold c sweeps 2..7. Larger c
// means larger minimum demands and a coarser start-time grid, so Reco-Mul's
// advantage grows.
func Fig9b(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "fig9b",
		Title:   fmt.Sprintf("Normalized CCT (LP-II-GB / Reco-Mul) vs c, mixed coflows (delta=%d)", cfg.Delta),
		Columns: []string{"avg", "95p"},
		Notes:   []string{"paper: 1.74 -> 1.96 over c=2..4 and 2.83 -> 3.74 over c=5..7"},
	}
	cSweep := []int64{2, 3, 4, 5, 6, 7}
	outs, err := sweepMixed(cfg, saltFig9b, len(cSweep), func(i int) Config {
		point := cfg
		point.C = cSweep[i] // affects both the workload's minimum demand and Reco-Mul's grid
		return point
	})
	if err != nil {
		return nil, fmt.Errorf("fig9b: %w", err)
	}
	for ci, c := range cSweep {
		avg, p95, err := normalizedCCT(outs[ci], mixed, lpCCTs)
		if err != nil {
			return nil, fmt.Errorf("fig9b c=%d: %w", c, err)
		}
		t.AddRow(fmt.Sprintf("c=%d", c), avg, p95)
	}
	return t, nil
}

// AblationAlignment isolates Sec. IV-A's start-time regularization: the full
// Reco-Mul transformation versus injecting reconfiguration delays at the
// unaligned original start times.
func AblationAlignment(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "ablation-align",
		Title:   fmt.Sprintf("Reco-Mul vs delay injection without start-time alignment (delta=%d, c=%d)", cfg.Delta, cfg.C),
		Columns: []string{"aligned reconf", "naive reconf", "aligned CCT", "naive CCT"},
	}
	totals, err := classBatchSums(cfg, saltAlign, func(ds []*matrix.Matrix) ([]float64, error) {
		order, err := ordering.PrimalDual(ds, nil)
		if err != nil {
			return nil, err
		}
		sp, err := packet.ListSchedule(ds, order)
		if err != nil {
			return nil, err
		}
		aligned, err := core.RecoMul(sp, cfg.MulN, cfg.Delta, cfg.C)
		if err != nil {
			return nil, err
		}
		naive, err := core.InjectDelays(sp, cfg.MulN, cfg.Delta)
		if err != nil {
			return nil, err
		}
		return []float64{
			float64(aligned.Reconfigs),
			float64(naive.Reconfigs),
			meanF(stats.Int64s(aligned.Flows.CCTs(len(ds)))),
			meanF(stats.Int64s(naive.Flows.CCTs(len(ds)))),
		}, nil
	})
	if err != nil {
		return nil, fmt.Errorf("ablation-align: %w", err)
	}
	n := float64(cfg.MulBatches)
	for ci, cl := range mulClassOrder {
		s := totals[ci]
		t.AddRow(className(cl), s[0]/n, s[1]/n, s[2]/n, s[3]/n)
	}
	return t, nil
}
