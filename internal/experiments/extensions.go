package experiments

import (
	"context"
	"fmt"

	"reco/internal/algo"
	_ "reco/internal/algo/builtin" // populate the scheduler registry
	"reco/internal/core"
	"reco/internal/hybrid"
	"reco/internal/matrix"
	"reco/internal/ocs"
	"reco/internal/online"
	"reco/internal/ordering"
	"reco/internal/packet"
	"reco/internal/parallel"
	"reco/internal/solstice"
	"reco/internal/stats"
	"reco/internal/workload"
)

// extSingleAlgos are the registry names behind ExtSingle's columns, in
// column order.
var extSingleAlgos = []string{
	algo.NameRecoSin, algo.NameSolstice, algo.NameSunflow,
	algo.NameTMSBvN, algo.NameHelios, algo.NameEclipse,
}

// ExtSingle compares every single-coflow scheduler in the repository — the
// paper's two (Reco-Sin, Solstice) plus the related-work baselines of
// Table IV (Sunflow in the not-all-stop model, TMS's primitive BvN, and a
// Helios-style slotted scheduler) — on mean CCT per density class. Each
// column is one registered scheduler, looked up by name.
func ExtSingle(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	return perClass(cfg, &Table{
		ID:      "ext-single",
		Title:   fmt.Sprintf("Mean single-coflow CCT across all baselines (delta=%d)", cfg.Delta),
		Columns: []string{"Reco-Sin", "Solstice", "Sunflow", "TMS-BvN", "Helios", "Eclipse"},
		Notes: []string{
			"Sunflow runs under the not-all-stop model it was designed for; the rest are all-stop",
			"Helios slot = 4*delta",
		},
	}, func(d *matrix.Matrix) ([]float64, error) {
		cells := make([]float64, len(extSingleAlgos))
		for ai, name := range extSingleAlgos {
			res, err := one(name, d, cfg.Delta)
			if err != nil {
				return nil, err
			}
			cells[ai] = float64(res.CCTs[0])
		}
		return cells, nil
	}, presentOnly(meanRow))
}

// ExtOnline compares the online controller policies (Sec. VIII's future
// direction): FIFO and SEBF serving one coflow at a time with Reco-Sin,
// versus batching all pending coflows through Reco-Mul, on a Poisson-like
// arrival stream. The policies replay the identical arrival stream, one
// simulation per trial.
func ExtOnline(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "ext-online",
		Title:   fmt.Sprintf("Online policies over arriving coflows (delta=%d, c=%d)", cfg.Delta, cfg.C),
		Columns: []string{"avg CCT", "95p CCT", "reconfigs", "units"},
	}
	coflows, err := workload.Generate(elephantGen(cfg, cfg.MulN, cfg.MulCoflows*3, cfg.Seed))
	if err != nil {
		return nil, fmt.Errorf("ext-online: %w", err)
	}
	rng := parallel.Rand(cfg.Seed, saltOnline)
	arrivals := make([]online.Arrival, len(coflows))
	var at int64
	for i, c := range coflows {
		arrivals[i] = online.Arrival{Demand: c.Demand, At: at, Weight: 1}
		// Mean inter-arrival of ~half a typical service time keeps the
		// switch loaded without unbounded queueing.
		at += rng.Int63n(4 * cfg.C * cfg.Delta)
	}
	policies := []online.Policy{online.FIFO{}, online.SEBF{}, online.Batch{}, online.DisjointBatch{}}
	rows, err := parallel.Map(cfg.workers(), len(policies), func(i int) (Row, error) {
		pol := policies[i]
		res, err := online.Simulate(arrivals, pol, cfg.Delta, cfg.C)
		if err != nil {
			return Row{}, fmt.Errorf("ext-online %s: %w", pol.Name(), err)
		}
		vals := stats.Int64s(res.CCTs)
		mean, err := stats.Mean(vals)
		if err != nil {
			return Row{}, fmt.Errorf("ext-online %s: %w", pol.Name(), err)
		}
		ps, _ := stats.Percentiles(vals, 95) // vals proven non-empty by Mean above
		return Row{Label: pol.Name(), Cells: []float64{mean, ps[0], float64(res.Reconfigs), float64(res.ServiceUnits)}}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// ExtHybrid sweeps the hybrid elephant threshold across multiples of delta,
// exhibiting the trade-off behind the paper's c·δ assumption: too low and
// mice flood the OCS with reconfigurations, too high and elephants crawl
// over the slow packet network.
func ExtHybrid(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "ext-hybrid",
		Title:   fmt.Sprintf("Hybrid switch: mean CCT vs elephant threshold (delta=%d, packet 10x slower)", cfg.Delta),
		Columns: []string{"mean CCT", "OCS reconfigs", "packet share %"},
	}
	coflows, err := miceWorkload(cfg, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("ext-hybrid: %w", err)
	}
	// Sub-delta thresholds matter: a mouse is worth sending to the packet
	// switch when its slowed-down transfer still beats its amortized share
	// of a reconfiguration, which crosses over near delta/slowdown.
	thresholds := []int64{0, cfg.Delta / 16, cfg.Delta / 4, cfg.Delta, 4 * cfg.Delta, 16 * cfg.Delta, 64 * cfg.Delta}
	// One trial per (threshold, coflow) pair.
	samples, err := grid(cfg.workers(), len(thresholds), len(coflows), func(ti, ci int) (*hybrid.Result, error) {
		res, err := hybrid.Schedule(context.Background(), coflows[ci].Demand, hybrid.Config{
			Delta: cfg.Delta, Threshold: thresholds[ti], PacketSlowdown: 10,
		})
		if err != nil {
			return nil, fmt.Errorf("ext-hybrid threshold %d: %w", thresholds[ti], err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	for ti, threshold := range thresholds {
		var ccts []float64
		var reconfigs int
		var ocsDemand, packetDemand int64
		for _, res := range samples[ti] {
			ccts = append(ccts, float64(res.CCT))
			reconfigs += res.OCSReconfigs
			ocsDemand += res.OCSDemand
			packetDemand += res.PacketDemand
		}
		mean, err := stats.Mean(ccts)
		if err != nil {
			return nil, fmt.Errorf("ext-hybrid threshold %d: %w", threshold, err)
		}
		share := 0.0
		if total := ocsDemand + packetDemand; total > 0 {
			share = 100 * float64(packetDemand) / float64(total)
		}
		t.AddRow(fmt.Sprintf("thr=%d", threshold), mean, float64(reconfigs), share)
	}
	return t, nil
}

// ExtSunflowNAS compares Reco-Sin and Sunflow in Sunflow's own not-all-stop
// model (Table III's "N" column): both are 2-approximate there, and the
// regularized schedule's fewer establishments still pay off.
func ExtSunflowNAS(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	return perClass(cfg, &Table{
		ID:      "ext-sunflow",
		Title:   fmt.Sprintf("Not-all-stop model: Reco-Sin vs Sunflow mean CCT (delta=%d)", cfg.Delta),
		Columns: []string{"Reco-Sin(NAS)", "Sunflow", "Sunflow/Reco"},
	}, func(d *matrix.Matrix) ([]float64, error) {
		reco, err := one(algo.NameRecoSin, d, cfg.Delta)
		if err != nil {
			return nil, err
		}
		nas, err := ocs.Core{Delta: cfg.Delta, Bandwidth: 1, CarryOver: true}.Exec(d, reco.Schedules[0])
		if err != nil {
			return nil, err
		}
		sun, err := one(algo.NameSunflow, d, cfg.Delta)
		if err != nil {
			return nil, err
		}
		return []float64{float64(nas.CCT), float64(sun.CCTs[0])}, nil
	}, presentOnly(meanRatioRow(1, 0)))
}

// ExtOptics measures the "price of optics": Reco-Mul's mean CCT over the
// idealized sequential-fluid electrical-switch reference (SEBF order, MADD
// rate sharing, zero reconfiguration cost), as the reconfiguration delay
// sweeps. As delta shrinks the optical schedule approaches the electrical
// reference; the residual gap at delta->0 is the cost of circuit
// integrality (one flow per port at a time).
func ExtOptics(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "ext-optics",
		Title:   fmt.Sprintf("Reco-Mul CCT over the ideal electrical reference, vs delta (c=%d)", cfg.C),
		Columns: []string{"Reco-Mul avg", "fluid avg", "ratio"},
	}
	batches, err := mixedBatches(cfg, saltOptics)
	if err != nil {
		return nil, fmt.Errorf("ext-optics: %w", err)
	}
	deltas := []int64{0, 10, 100, 1000}
	type sample struct{ reco, fluid []float64 }
	samples, err := grid(cfg.workers(), len(deltas), len(batches), func(di, b int) (sample, error) {
		ds := batches[b]
		mul, err := runRow(algo.NameRecoMul, algo.Request{Demands: ds, Delta: deltas[di], C: cfg.C})
		if err != nil {
			return sample{}, fmt.Errorf("ext-optics delta=%d: %w", deltas[di], err)
		}
		order := ordering.SEBF(ds)
		fluid, err := packet.FluidCCTs(ds, order)
		if err != nil {
			return sample{}, fmt.Errorf("ext-optics: %w", err)
		}
		return sample{reco: stats.Int64s(mul.CCTs), fluid: stats.Int64s(fluid)}, nil
	})
	if err != nil {
		return nil, err
	}
	for di, delta := range deltas {
		var recoVals, fluidVals []float64
		for _, s := range samples[di] {
			recoVals = append(recoVals, s.reco...)
			fluidVals = append(fluidVals, s.fluid...)
		}
		recoMean, err := stats.Mean(recoVals)
		if err != nil {
			return nil, fmt.Errorf("ext-optics: %w", err)
		}
		fluidMean, _ := stats.Mean(fluidVals)
		t.AddRow(fmt.Sprintf("d=%d", delta), recoMean, fluidMean, stats.Ratio(recoMean, fluidMean))
	}
	return t, nil
}

// ExtScale checks the scale-stability claim behind the repository's
// reduced-size defaults (DESIGN.md §2): the normalized multi-coflow ratios
// that the paper reports keep their direction and rough magnitude as the
// fabric size sweeps. Each row is one fabric size; the cells are the
// LP-II-GB/Reco-Mul mean-CCT and reconfiguration ratios over mixed batches.
func ExtScale(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "ext-scale",
		Title:   fmt.Sprintf("Scale stability of LP-II-GB / Reco-Mul ratios vs fabric size (delta=%d, c=%d)", cfg.Delta, cfg.C),
		Columns: []string{"CCT ratio", "reconf ratio"},
	}
	sizes := []int{cfg.MulN / 2, cfg.MulN * 3 / 4, cfg.MulN}
	outs, err := sweepMixed(cfg, saltScale, len(sizes), func(i int) Config {
		point := cfg
		point.MulN = sizes[i]
		return point
	})
	if err != nil {
		return nil, fmt.Errorf("ext-scale: %w", err)
	}
	for ni, n := range sizes {
		cctRatio, _, err := normalizedCCT(outs[ni], mixed, lpCCTs)
		if err != nil {
			return nil, fmt.Errorf("ext-scale n=%d: %w", n, err)
		}
		var lpReconf, recoReconf float64
		for _, out := range outs[ni] {
			lpReconf += float64(out.lpReconf)
			recoReconf += float64(out.recoReconf)
		}
		t.AddRow(fmt.Sprintf("N=%d", n), cctRatio, stats.Ratio(lpReconf, recoReconf))
	}
	return t, nil
}

// ExtNAS compares Reco-Mul under the two reconfiguration models of Table
// III: the all-stop transformation versus the not-all-stop variant (only
// the ports being set up stall) on mixed batches. Not-all-stop completions
// are never later per coflow; the gap measures how much the all-stop
// freezes cost.
func ExtNAS(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "ext-nas",
		Title:   fmt.Sprintf("Reco-Mul: all-stop vs not-all-stop (delta=%d, c=%d)", cfg.Delta, cfg.C),
		Columns: []string{"all-stop CCT", "NAS CCT", "speedup", "AS reconf", "NAS setups"},
	}
	type sample struct {
		as, nas             []float64
		asReconf, nasReconf float64
	}
	samples, err := parallel.Map(cfg.workers(), cfg.MulBatches, func(b int) (sample, error) {
		ds, err := mixedBatch(cfg, parallel.Seed(cfg.Seed, saltNAS, int64(b)))
		if err != nil {
			return sample{}, fmt.Errorf("ext-nas: %w", err)
		}
		order, err := ordering.PrimalDual(ds, nil)
		if err != nil {
			return sample{}, fmt.Errorf("ext-nas: %w", err)
		}
		sp, err := packet.ListSchedule(ds, order)
		if err != nil {
			return sample{}, fmt.Errorf("ext-nas: %w", err)
		}
		as, err := core.RecoMul(sp, cfg.MulN, cfg.Delta, cfg.C)
		if err != nil {
			return sample{}, fmt.Errorf("ext-nas: %w", err)
		}
		nas, err := core.RecoMulNAS(sp, cfg.MulN, cfg.Delta, cfg.C)
		if err != nil {
			return sample{}, fmt.Errorf("ext-nas: %w", err)
		}
		return sample{
			as:        stats.Int64s(as.Flows.CCTs(len(ds))),
			nas:       stats.Int64s(nas.Flows.CCTs(len(ds))),
			asReconf:  float64(as.Reconfigs),
			nasReconf: float64(nas.Reconfigs),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	var asVals, nasVals []float64
	var asReconf, nasReconf float64
	for _, s := range samples {
		asVals = append(asVals, s.as...)
		nasVals = append(nasVals, s.nas...)
		asReconf += s.asReconf
		nasReconf += s.nasReconf
	}
	asMean, err := stats.Mean(asVals)
	if err != nil {
		return nil, fmt.Errorf("ext-nas: %w", err)
	}
	nasMean, _ := stats.Mean(nasVals)
	nb := float64(cfg.MulBatches)
	t.AddRow("mixed", asMean, nasMean, stats.Ratio(asMean, nasMean), asReconf/nb, nasReconf/nb)
	return t, nil
}

// ExtFull runs the complete 526-coflow workload at the paper's own scale —
// 150 ports, no folding — through Reco-Mul and SEBF+Solstice: the
// full-trace headline comparison. LP-II-GB is omitted: its interval-indexed
// LP over 526 coflows is what the paper bought GUROBI for. Not part of
// `recobench -exp all`; run it explicitly (it takes ~30 s).
func ExtFull(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	coflows, err := workload.Generate(elephantGen(cfg, 150, 526, cfg.Seed))
	if err != nil {
		return nil, fmt.Errorf("ext-full: %w", err)
	}
	ds := make([]*matrix.Matrix, len(coflows))
	for i, c := range coflows {
		ds[i] = c.Demand
	}

	reco, err := runRow(algo.NameRecoMul, algo.Request{Demands: ds, Delta: cfg.Delta, C: cfg.C})
	if err != nil {
		return nil, fmt.Errorf("ext-full: %w", err)
	}
	schedules, err := parallel.Map(cfg.workers(), len(ds), func(k int) (ocs.CircuitSchedule, error) {
		cs, err := solstice.Schedule(context.Background(), ds[k])
		if err != nil {
			return nil, fmt.Errorf("ext-full solstice coflow %d: %w", k, err)
		}
		return cs, nil
	})
	if err != nil {
		return nil, err
	}
	sebf, err := ocs.ExecSequential(ds, schedules, ordering.SEBF(ds), cfg.Delta, false)
	if err != nil {
		return nil, fmt.Errorf("ext-full sebf exec: %w", err)
	}

	t := &Table{
		ID:      "ext-full",
		Title:   fmt.Sprintf("Full 526-coflow workload on 150 ports (delta=%d, c=%d)", cfg.Delta, cfg.C),
		Columns: []string{"Reco-Mul avg", "SEBF+Sol avg", "SEBF/Reco"},
		Notes: []string{
			"not part of -exp all; LP-II-GB omitted (526-coflow LP needs a commercial solver)",
			fmt.Sprintf("reconfigurations: Reco-Mul %d, SEBF+Solstice %d", reco.Reconfigs, sebf.Reconfigs),
		},
	}
	classes := classesOf(ds)
	for _, cl := range mulClassOrder {
		var recoVals, sebfVals []float64
		for k := range ds {
			if cl != mixed && classes[k] != cl {
				continue
			}
			recoVals = append(recoVals, float64(reco.CCTs[k]))
			sebfVals = append(sebfVals, float64(sebf.CCTs[k]))
		}
		recoMean, err := stats.Mean(recoVals)
		if err != nil {
			continue
		}
		sebfMean, _ := stats.Mean(sebfVals)
		t.AddRow(className(cl), recoMean, sebfMean, stats.Ratio(sebfMean, recoMean))
	}
	return t, nil
}
