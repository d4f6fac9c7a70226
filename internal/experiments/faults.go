package experiments

import (
	"fmt"

	"reco/internal/algo"
	"reco/internal/faults"
	"reco/internal/ocs"
	"reco/internal/parallel"
	"reco/internal/sim"
	"reco/internal/stats"
)

// faultSalt separates the degraded-CCT experiment's fault-schedule streams
// from every other seeded draw in the repository.
const faultSalt int64 = 401

// faultLevel is one row of the degraded-CCT experiment: a port-failure rate
// and a circuit-setup failure probability.
type faultLevel struct {
	label     string
	portRate  float64
	setupProb float64
}

// faultLevels sweeps port-failure rate with reliable setups, then
// setup-failure probability with reliable ports. The zero row anchors both
// controllers at exactly the fault-free executor.
var faultLevels = []faultLevel{
	{"none", 0, 0},
	{"pfail=0.10", 0.10, 0},
	{"pfail=0.25", 0.25, 0},
	{"pfail=0.50", 0.50, 0},
	{"setup=0.05", 0, 0.05},
	{"setup=0.10", 0, 0.10},
	{"setup=0.20", 0, 0.20},
}

// faultPoint is one coflow's outcome at one fault level: both controllers'
// CCTs normalized to the fault-free Reco-Sin execution of the same coflow.
type faultPoint struct {
	replayN, recoverN float64
}

// cleanRun is one coflow's fault-free Reco-Sin plan and the CCT executing it
// takes, the baseline every fault level is measured against.
type cleanRun struct {
	cs  ocs.CircuitSchedule
	cct int64
}

// runFaultTrials runs every (fault level, coflow) pair through the faulted
// simulator: the naive ReplayLoop that blindly replays the precomputed
// Reco-Sin schedule versus the predictive Recover controller, which treats
// the injected schedule as a known maintenance plan, replans residual demand
// on surviving ports, and never finishes later than the replay. Each coflow's
// clean plan and execution are computed once, ahead of the levels. Trials fan
// out over the worker pool and are collected by index, so the table is
// identical at any worker count: each trial's fault schedule derives from
// (seed, faultSalt, level, coflow) and nothing else.
func runFaultTrials(cfg Config) ([][]faultPoint, error) {
	coflows, err := singleWorkload(cfg)
	if err != nil {
		return nil, err
	}
	cleans, err := parallel.Map(cfg.workers(), len(coflows), func(ci int) (cleanRun, error) {
		clean, err := one(algo.NameRecoSin, coflows[ci].Demand, cfg.Delta)
		if err != nil {
			return cleanRun{}, fmt.Errorf("coflow %d: %w", ci, err)
		}
		return cleanRun{cs: clean.Schedules[0], cct: clean.CCTs[0]}, nil
	})
	if err != nil {
		return nil, err
	}
	return grid(cfg.workers(), len(faultLevels), len(coflows), func(li, ci int) (faultPoint, error) {
		lvl := faultLevels[li]
		d := coflows[ci].Demand
		cs, cct := cleans[ci].cs, cleans[ci].cct

		// Faults strike inside the nominal run window and every failed port
		// recovers after half of it, so all demand stays servable and both
		// controllers run to completion.
		fs, err := faults.Generate(faults.GenConfig{
			N:             d.N(),
			Seed:          parallel.Seed(cfg.Seed, faultSalt, int64(li), int64(ci)),
			Horizon:       cct,
			PortFailRate:  lvl.portRate,
			RepairAfter:   max(cct/2, cfg.Delta),
			SetupFailProb: lvl.setupProb,
		})
		if err != nil {
			return faultPoint{}, fmt.Errorf("fault schedule for coflow %d: %w", ci, err)
		}
		// The table reads only CCTs: the runs keep neither flows nor log.
		sw := ocs.Core{Delta: cfg.Delta, Bandwidth: 1, Faults: fs}
		naive, err := sim.Run(sw, d, sim.NewReplayLoop(cs))
		if err != nil {
			return faultPoint{}, fmt.Errorf("replay under faults on coflow %d level %q: %w", ci, lvl.label, err)
		}
		rec, err := sim.RunPredictive(sw, d, naive)
		if err != nil {
			return faultPoint{}, fmt.Errorf("recover under faults on coflow %d level %q: %w", ci, lvl.label, err)
		}
		base := float64(cct)
		return faultPoint{
			replayN:  float64(naive.CCT) / base,
			recoverN: float64(rec.CCT) / base,
		}, nil
	})
}

// Faults is the degraded-CCT experiment: mean CCT under injected port
// failures and circuit-setup failures, normalized to the fault-free
// execution, for the naive replay and the replanning Recover controller.
func Faults(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	trials, err := runFaultTrials(cfg)
	if err != nil {
		return nil, fmt.Errorf("faults: %w", err)
	}
	t := &Table{
		ID:      "faults",
		Title:   fmt.Sprintf("Degraded CCT under injected faults, normalized to fault-free Reco-Sin (delta=%d)", cfg.Delta),
		Columns: []string{"Replay/Clean", "Recover/Clean", "Replay/Recover"},
		Notes: []string{
			"pfail: per-port failure probability inside the nominal run window (ports repair after half of it)",
			"setup: per-establishment circuit-setup failure probability",
			"Recover replans residual demand on surviving ports with the outage plan in view; Replay blindly loops the precomputed schedule",
		},
	}
	for li, lvl := range faultLevels {
		var replay, recover []float64
		for _, p := range trials[li] {
			replay = append(replay, p.replayN)
			recover = append(recover, p.recoverN)
		}
		rMean, err := stats.Mean(replay)
		if err != nil {
			continue
		}
		cMean, _ := stats.Mean(recover)
		t.AddRow(lvl.label, rMean, cMean, stats.Ratio(rMean, cMean))
	}
	return t, nil
}
