package experiments

import (
	"context"
	"fmt"
	"math"

	"reco/internal/algo"
	"reco/internal/hybrid"
	"reco/internal/parallel"
	"reco/internal/stats"
)

// hybridFracs is the electrical-bandwidth sweep the hybrid experiment
// publishes: the electrical fabric's per-port rate as a fraction of one
// circuit lane. The static baseline maps each fraction to its reciprocal
// packet slowdown (20x, 10x, 5x, 2x).
var hybridFracs = []float64{0.05, 0.1, 0.2, 0.5}

// hybridThresholdDeltas are the elephant-cutoff multiples of delta swept per
// fraction.
var hybridThresholdDeltas = []int64{1, 4, 16}

// Hybrid sweeps electrical fraction x elephant threshold over a mice-heavy
// workload, comparing the rate-based joint fluid model (docs/HYBRID.md)
// against the classical static elephant/mice split and an all-optical run.
// For each (fraction f, threshold thr) pair every coflow is scheduled three
// ways:
//
//   - static: the legacy hybrid.Schedule — elephants via Reco-Sin on the
//     OCS, mice on a packet network round(1/f) times slower, no interaction;
//   - fluid: hybrid.ScheduleFluid under PolicyThreshold with ElecFrac f —
//     the same split, but both fabrics on one clock, with the electrical
//     fabric spending idle capacity (reconfiguration stalls, post-drain
//     slack) on the optical residual;
//   - ocs-only: Reco-Sin + all-stop execution of the whole demand, the
//     paper's single-fabric baseline.
//
// Reported per row: the mean CCT of each model and the fluid/static ratio.
// The shape that matters: joint fluid service beats the static split at
// every swept fraction — idle electrical capacity is free progress on
// optical residuals, so the fluid CCT is never behind and strictly ahead
// wherever reconfiguration stalls leave slack.
//
// Off the presentation order: see experimentList.
func Hybrid(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "hybrid",
		Title:   fmt.Sprintf("Hybrid fluid vs static split: mean CCT over elec-frac x threshold (delta=%d)", cfg.Delta),
		Columns: []string{"static", "fluid", "fluid/static", "ocs-only"},
		Notes: []string{
			"static = legacy elephant/mice split, packet network round(1/frac)x slower, fabrics independent",
			"fluid = rate-based joint service (PolicyThreshold): electrical fabric at frac of a circuit lane helps optical residuals",
			"ocs-only = Reco-Sin + all-stop execution of the undivided demand",
		},
	}

	coflows, err := miceWorkload(cfg, parallel.Seed(cfg.Seed, saltHybrid))
	if err != nil {
		return nil, fmt.Errorf("hybrid: %w", err)
	}

	// The all-optical baseline is threshold-independent: one run per coflow.
	ocsOnly, err := parallel.Map(cfg.workers(), len(coflows), func(i int) (float64, error) {
		res, err := one(algo.NameRecoSin, coflows[i].Demand, cfg.Delta)
		if err != nil {
			return 0, err
		}
		return float64(res.CCTs[0]), nil
	})
	if err != nil {
		return nil, fmt.Errorf("hybrid ocs-only: %w", err)
	}
	ocsMean, err := stats.Mean(ocsOnly)
	if err != nil {
		return nil, fmt.Errorf("hybrid: %w", err)
	}

	type variant struct {
		frac float64
		thr  int64
	}
	var variants []variant
	for _, f := range hybridFracs {
		for _, m := range hybridThresholdDeltas {
			variants = append(variants, variant{f, m * cfg.Delta})
		}
	}

	// One trial per (variant, coflow) pair.
	type sample struct{ static, fluid float64 }
	samples, err := grid(cfg.workers(), len(variants), len(coflows), func(vi, ci int) (sample, error) {
		v, d := variants[vi], coflows[ci].Demand
		st, err := hybrid.Schedule(context.Background(), d, hybrid.Config{
			Delta: cfg.Delta, Threshold: v.thr,
			PacketSlowdown: int64(math.Round(1 / v.frac)),
		})
		if err != nil {
			return sample{}, fmt.Errorf("hybrid static f=%g thr=%d: %w", v.frac, v.thr, err)
		}
		fl, err := hybrid.ScheduleFluid(context.Background(), d, hybrid.FluidConfig{
			Delta: cfg.Delta, Threshold: v.thr, ElecFrac: v.frac,
			Policy: hybrid.PolicyThreshold,
		})
		if err != nil {
			return sample{}, fmt.Errorf("hybrid fluid f=%g thr=%d: %w", v.frac, v.thr, err)
		}
		return sample{static: float64(st.CCT), fluid: float64(fl.CCT)}, nil
	})
	if err != nil {
		return nil, err
	}

	for vi, v := range variants {
		var static, fluid []float64
		for _, s := range samples[vi] {
			static = append(static, s.static)
			fluid = append(fluid, s.fluid)
		}
		staticMean, err := stats.Mean(static)
		if err != nil {
			return nil, fmt.Errorf("hybrid f=%g thr=%d: %w", v.frac, v.thr, err)
		}
		fluidMean, _ := stats.Mean(fluid) // same length as static, proven non-empty
		t.AddRow(fmt.Sprintf("f=%g/thr=%d", v.frac, v.thr),
			staticMean, fluidMean, fluidMean/staticMean, ocsMean)
	}
	return t, nil
}
