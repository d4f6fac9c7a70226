package experiments

import (
	"context"
	"fmt"

	"reco/internal/algo"
	"reco/internal/bvn"
	"reco/internal/core"
	"reco/internal/matrix"
	"reco/internal/ocs"
	"reco/internal/parallel"
	"reco/internal/stats"
)

// singleMetrics holds one coflow's single-coflow scheduling outcome for both
// algorithms.
type singleMetrics struct {
	recoReconf, solReconf  float64
	recoCCT, solCCT, lower float64
}

// scheduleBoth schedules d with the registered Reco-Sin and Solstice
// schedulers under the all-stop model with the given delta, asking for no
// flows.
func scheduleBoth(d *matrix.Matrix, delta int64) (singleMetrics, error) {
	recoRes, err := one(algo.NameRecoSin, d, delta)
	if err != nil {
		return singleMetrics{}, err
	}
	solRes, err := one(algo.NameSolstice, d, delta)
	if err != nil {
		return singleMetrics{}, err
	}
	return singleMetrics{
		recoReconf: float64(recoRes.Reconfigs),
		solReconf:  float64(solRes.Reconfigs),
		recoCCT:    float64(recoRes.CCTs[0]),
		solCCT:     float64(solRes.CCTs[0]),
		lower:      float64(ocs.LowerBound(d, delta)),
	}, nil
}

// The (Reco-Sin, Solstice) column pairs the Fig. 4/5 tables sample from a
// scheduleBoth outcome.
func pickReconfs(m singleMetrics) []float64 { return []float64{m.recoReconf, m.solReconf} }
func pickCCTs(m singleMetrics) []float64    { return []float64{m.recoCCT, m.solCCT} }

// pickOverLB is both CCTs normalized to the lower bound ρ+τδ; a coflow with
// a zero bound (no demand) contributes no sample.
func pickOverLB(m singleMetrics) []float64 {
	if m.lower == 0 {
		return nil
	}
	return []float64{m.recoCCT / m.lower, m.solCCT / m.lower}
}

// bothPerClass fills t per density class from pick's columns of scheduleBoth
// at the default delta.
func bothPerClass(cfg Config, t *Table, pick func(singleMetrics) []float64, row classRow) (*Table, error) {
	return perClass(cfg, t, func(d *matrix.Matrix) ([]float64, error) {
		m, err := scheduleBoth(d, cfg.Delta)
		if err != nil {
			return nil, err
		}
		return pick(m), nil
	}, row)
}

// Fig4a reproduces Fig. 4(a): reconfiguration counts of Reco-Sin vs
// Solstice per density class at the default delta. The paper reports
// Solstice needing 2.58× / 7.07× / 7.36× the reconfigurations of Reco-Sin
// for sparse / normal / dense coflows.
func Fig4a(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	return bothPerClass(cfg, &Table{
		ID:      "fig4a",
		Title:   fmt.Sprintf("Mean reconfigurations per coflow (delta=%d)", cfg.Delta),
		Columns: []string{"Reco-Sin", "Solstice", "Solstice/Reco"},
		Notes:   []string{"paper ratios: sparse 2.58x, normal 7.07x, dense 7.36x"},
	}, pickReconfs, meanRatioRow(1, 0))
}

// Fig4b reproduces Fig. 4(b): CCT of Reco-Sin vs Solstice per density class
// at the default delta. The paper reports Solstice needing 1.19× / 1.15× /
// 1.14× the time of Reco-Sin.
func Fig4b(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	return bothPerClass(cfg, &Table{
		ID:      "fig4b",
		Title:   fmt.Sprintf("Mean single-coflow CCT (delta=%d)", cfg.Delta),
		Columns: []string{"Reco-Sin", "Solstice", "Solstice/Reco"},
		Notes:   []string{"paper ratios: sparse 1.19x, normal 1.15x, dense 1.14x"},
	}, pickCCTs, meanRatioRow(1, 0))
}

// deltaSweep is the Fig. 5 sweep: 100 µs up to 100 ms in decade steps
// (ticks are µs).
var deltaSweep = []int64{100, 1_000, 10_000, 100_000}

// bothPerClassVsDelta fills t with one block of per-class rows per
// deltaSweep point, from pick's columns of scheduleBoth at that delta. The
// (delta, coflow) pairs are one trial grid.
func bothPerClassVsDelta(cfg Config, t *Table, pick func(singleMetrics) []float64, row classRow) (*Table, error) {
	coflows, err := singleWorkload(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", t.ID, err)
	}
	sweep, err := grid(cfg.workers(), len(deltaSweep), len(coflows), func(di, i int) ([]float64, error) {
		m, err := scheduleBoth(coflows[i].Demand, deltaSweep[di])
		if err != nil {
			return nil, fmt.Errorf("%s delta=%d: %w", t.ID, deltaSweep[di], err)
		}
		return pick(m), nil
	})
	if err != nil {
		return nil, err
	}
	for di, delta := range deltaSweep {
		classRows(t, coflows, sweep[di], fmt.Sprintf(" d=%d", delta), row)
	}
	return t, nil
}

// Fig5a reproduces Fig. 5(a): reconfiguration counts vs delta per density
// class. Solstice's count is delta-independent; Reco-Sin's falls as delta
// grows because regularization aligns more entries.
func Fig5a(cfg Config) (*Table, error) {
	return bothPerClassVsDelta(cfg.withDefaults(), &Table{
		ID:      "fig5a",
		Title:   "Mean reconfigurations per coflow vs delta",
		Columns: []string{"Reco-Sin", "Solstice", "Solstice/Reco"},
		Notes:   []string{"paper: Solstice needs 2.10-3.10x (sparse) and 7.55-8.12x (non-sparse) Reco-Sin's reconfigurations"},
	}, pickReconfs, meanRatioRow(1, 0))
}

// Fig5b reproduces Fig. 5(b): CCT normalized to the lower bound ρ+τδ vs
// delta per density class. The paper's extreme delta point has Solstice at
// 32.66× / 23.89× / 18.26× the bound and Reco-Sin at 21.00× / 3.96× / 2.72×.
func Fig5b(cfg Config) (*Table, error) {
	return bothPerClassVsDelta(cfg.withDefaults(), &Table{
		ID:      "fig5b",
		Title:   "Mean CCT normalized to the lower bound rho+tau*delta, vs delta",
		Columns: []string{"Reco-Sin/LB", "Solstice/LB"},
		Notes:   []string{"paper at delta=100ms: Solstice 32.66/23.89/18.26x vs Reco-Sin 21.00/3.96/2.72x (sparse/normal/dense)"},
	}, pickOverLB, presentOnly(meanRow))
}

// Thm1 exhibits the Theorem 1 pathology: on matrices crafted to need many
// Birkhoff terms, a primitive (first-fit) BvN schedule performs Θ(N²)
// reconfigurations while Reco-Sin stays near N, so the CCT gap grows with N.
func Thm1(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "thm1",
		Title:   fmt.Sprintf("Primitive BvN vs Reco-Sin on adversarial near-uniform matrices (delta=%d)", cfg.Delta),
		Columns: []string{"BvN reconf", "Reco reconf", "BvN CCT", "Reco CCT", "CCT ratio"},
		Notes:   []string{"Theorem 1: the ratio grows with N"},
	}
	sizes := []int{4, 8, 16, 32}
	rows, err := parallel.Map(cfg.workers(), len(sizes), func(i int) (Row, error) {
		n := sizes[i]
		d, err := adversarialMatrix(n, cfg.Delta)
		if err != nil {
			return Row{}, fmt.Errorf("thm1: %w", err)
		}
		bvnRes, err := one(algo.NameTMSBvN, d, cfg.Delta)
		if err != nil {
			return Row{}, fmt.Errorf("thm1: %w", err)
		}
		recoRes, err := one(algo.NameRecoSin, d, cfg.Delta)
		if err != nil {
			return Row{}, fmt.Errorf("thm1: %w", err)
		}
		bvnCCT, recoCCT := float64(bvnRes.CCTs[0]), float64(recoRes.CCTs[0])
		return Row{Label: fmt.Sprintf("N=%d", n), Cells: []float64{
			float64(bvnRes.Reconfigs), float64(recoRes.Reconfigs),
			bvnCCT, recoCCT, stats.Ratio(bvnCCT, recoCCT),
		}}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// adversarialMatrix builds the Theorem 1 construction: a full matrix of
// small pairwise-distinct entries (ε-scaled), which forces a primitive BvN
// decomposition into Θ(N²) permutations while a regularized schedule covers
// it with N establishments.
func adversarialMatrix(n int, delta int64) (*matrix.Matrix, error) {
	d, err := matrix.New(n)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			// Distinct tiny values; strictly positive, all below delta.
			d.Set(i, j, 1+int64((i*n+j)%int(max(2, delta-1))))
		}
	}
	return d, nil
}

// Thm2 verifies Theorem 2 over the workload: per class, the worst observed
// Reco-Sin CCT over the lower bound stays at or below 2.
func Thm2(cfg Config) (*Table, error) {
	return bothPerClass(cfg.withDefaults(), &Table{
		ID:      "thm2",
		Title:   "Worst-case Reco-Sin CCT / (rho + tau*delta) per class",
		Columns: []string{"max ratio", "bound"},
		Notes:   []string{"Theorem 2 guarantees the ratio never exceeds 2"},
	}, pickOverLB, func(t *Table, label string, cols [][]float64) {
		worst := 0.0
		for _, r := range cols[0] {
			worst = max(worst, r)
		}
		t.AddRow(label, worst, 2)
	})
}

// AblationRegularization isolates Sec. III-B: Reco-Sin versus the same
// pipeline without demand regularization (stuff + max–min BvN directly).
func AblationRegularization(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	return perClass(cfg, &Table{
		ID:      "ablation-reg",
		Title:   fmt.Sprintf("Reco-Sin vs unregularized stuff+max-min BvN (delta=%d)", cfg.Delta),
		Columns: []string{"Reco reconf", "NoReg reconf", "Reco CCT", "NoReg CCT"},
	}, func(d *matrix.Matrix) ([]float64, error) {
		reco, err := one(algo.NameRecoSin, d, cfg.Delta)
		if err != nil {
			return nil, err
		}
		// No regularization: Reco-Sin planned at delta 0 is the same
		// pipeline minus the rounding step, executed at the real delta.
		plain, err := one(algo.NameRecoSin, d, 0)
		if err != nil {
			return nil, err
		}
		noreg, err := ocs.Core{Delta: cfg.Delta, Bandwidth: 1}.Exec(d, plain.Schedules[0])
		if err != nil {
			return nil, err
		}
		return []float64{
			float64(reco.Reconfigs), float64(noreg.Reconfigs),
			float64(reco.CCTs[0]), float64(noreg.CCT),
		}, nil
	}, presentOnly(meanRow))
}

// AblationBvNStrategy isolates the extraction rule inside Reco-Sin's
// decomposition: max–min matching versus first-fit matching, both on the
// regularized stuffed matrix.
func AblationBvNStrategy(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	return perClass(cfg, &Table{
		ID:      "ablation-bvn",
		Title:   fmt.Sprintf("BvN extraction rule inside Reco-Sin (delta=%d)", cfg.Delta),
		Columns: []string{"max-min terms", "first-fit terms"},
	}, func(d *matrix.Matrix) ([]float64, error) {
		stuffed := matrix.StuffPreferNonZero(core.Regularize(d, cfg.Delta))
		mm, err := bvn.DecomposeCtx(context.Background(), stuffed, bvn.MaxMin)
		if err != nil {
			return nil, err
		}
		ff, err := bvn.DecomposeCtx(context.Background(), stuffed, bvn.FirstFit)
		if err != nil {
			return nil, err
		}
		return []float64{float64(len(mm)), float64(len(ff))}, nil
	}, presentOnly(meanRow))
}

// NotAllStop compares the all-stop and not-all-stop executors on Reco-Sin
// schedules (Sec. VI): the not-all-stop model can only help, because
// carried-over circuits transmit through reconfigurations.
func NotAllStop(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	return perClass(cfg, &Table{
		ID:      "notallstop",
		Title:   fmt.Sprintf("Reco-Sin CCT under all-stop vs not-all-stop (delta=%d)", cfg.Delta),
		Columns: []string{"all-stop", "not-all-stop", "speedup"},
	}, func(d *matrix.Matrix) ([]float64, error) {
		all, err := one(algo.NameRecoSin, d, cfg.Delta)
		if err != nil {
			return nil, err
		}
		nas, err := ocs.Core{Delta: cfg.Delta, Bandwidth: 1, CarryOver: true}.Exec(d, all.Schedules[0])
		if err != nil {
			return nil, err
		}
		return []float64{float64(all.CCTs[0]), float64(nas.CCT)}, nil
	}, presentOnly(meanRatioRow(0, 1)))
}
