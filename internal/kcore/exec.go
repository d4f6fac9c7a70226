package kcore

import (
	"errors"
	"fmt"

	"reco/internal/core"
	"reco/internal/faults"
	"reco/internal/matrix"
	"reco/internal/obs"
	"reco/internal/ocs"
	"reco/internal/schedule"
	"reco/internal/sim"
)

// KResult reports the outcome of running one coflow's split on a K-core
// fabric. Cores reconfigure and transmit independently and in parallel, all
// from tick 0; PerCore holds each core's independently-validatable result on
// that shared clock and the top-level fields fold them.
type KResult struct {
	// CCT is the fabric completion time: the slowest core's CCT.
	CCT int64
	// Reconfigs, ConfTime, TransTime and SetupFailures sum across cores
	// (cores reconfigure concurrently, so ConfTime can exceed CCT at K > 1;
	// at K = 1 TransTime equals CCT − ConfTime).
	Reconfigs     int
	ConfTime      int64
	TransTime     int64
	SetupFailures int
	// PerCore is each core's single-switch result. For a core that died
	// mid-run under RunRecover, CCT is the tick its last establishment ended
	// (at or shortly after the death tick) and Flows holds only what it
	// drained before dying.
	PerCore []ocs.Result
	// Flows merges every core's flow intervals in core order. At K > 1 a
	// port legitimately carries up to K concurrent flows (one transceiver
	// per core), so the merged schedule does not satisfy the single-switch
	// FlowSchedule.Validate port constraint; validate PerCore[c].Flows
	// against one core instead.
	Flows schedule.FlowSchedule
	// DeadCores lists cores that died mid-run (RunRecover only).
	DeadCores []int
	// ReplannedTicks is the demand volume RunRecover moved from dead cores
	// onto survivors.
	ReplannedTicks int64
}

// fold is the K-core aggregate of per-core runs: the maximum CCT, the sum of
// everything else, and every core's flows appended to flows.
func fold(perCore []ocs.Result, flows schedule.FlowSchedule) KResult {
	kr := KResult{PerCore: perCore, Flows: flows}
	for _, r := range perCore {
		kr.CCT = max(kr.CCT, r.CCT)
		kr.Reconfigs += r.Reconfigs
		kr.ConfTime += r.ConfTime
		kr.TransTime += r.TransTime
		kr.SetupFailures += r.SetupFailures
		kr.Flows = append(kr.Flows, r.Flows...)
	}
	return kr
}

// check validates what every K-core run is handed: a usable fabric, and one
// demand share and one plan per core, every share of the same dimension. The
// plans' assignments are checked by the core that runs them.
func check(topo Topology, split []*matrix.Matrix, plans []ocs.CircuitSchedule) error {
	if err := topo.Validate(); err != nil {
		return err
	}
	if len(split) != topo.K() || len(plans) != topo.K() {
		return fmt.Errorf("%w: %d demand shares and %d plans for %d cores",
			ocs.ErrInvalidAssignment, len(split), len(plans), topo.K())
	}
	for c, share := range split {
		if share.N() != split[0].N() {
			return fmt.Errorf("%w: share %d has %d ports, share 0 has %d",
				ocs.ErrInvalidAssignment, c, share.N(), split[0].N())
		}
	}
	return nil
}

// Exec plays one circuit schedule per core against that core's share of a
// demand split (as produced by SplitGreedy or SplitRoundRobin), honoring
// each core's bandwidth and reconfiguration delay: each core is the
// single-switch executor at its own rate, so at K = 1 with a unit-bandwidth
// core PerCore[0] is ocs.ExecAllStop(split[0], plans[0], delta).
func Exec(topo Topology, split []*matrix.Matrix, plans []ocs.CircuitSchedule) (KResult, error) {
	return exec(topo, split, plans, nil)
}

// exec is Exec folding the cores' flows into flows.
func exec(topo Topology, split []*matrix.Matrix, plans []ocs.CircuitSchedule, flows schedule.FlowSchedule) (KResult, error) {
	if err := check(topo, split, plans); err != nil {
		return KResult{}, err
	}
	perCore := make([]ocs.Result, topo.K())
	for c, cr := range topo.Cores {
		var err error
		if perCore[c], err = ocs.ExecAllStopRate(split[c], plans[c], cr.Delta, cr.Bandwidth); err != nil {
			return fold(perCore[:c], flows), fmt.Errorf("core %d: %w", c, err)
		}
	}
	return fold(perCore, flows), nil
}

// ExecSequential executes one K-core plan per coflow, in the given priority
// order: the whole fabric is handed to one coflow at a time, exactly like
// ocs.ExecSequential, but each coflow transmits its split across all K cores
// in parallel. splits[k] and plans[k] are coflow k's demand split and
// per-core schedules.
func ExecSequential(topo Topology, splits [][]*matrix.Matrix, plans [][]ocs.CircuitSchedule, order []int) (ocs.SeqResult, error) {
	if len(splits) != len(plans) {
		return ocs.SeqResult{}, fmt.Errorf("kcore: %d demand splits but %d plans", len(splits), len(plans))
	}
	return ocs.Sequence(len(splits), order, func(k int) int {
		most := 0
		for c := range min(len(splits[k]), len(plans[k])) {
			most += ocs.FlowBound(splits[k][c], plans[k][c])
		}
		return most
	}, func(k int, flows schedule.FlowSchedule) (ocs.Result, error) {
		kr, err := exec(topo, splits[k], plans[k], flows)
		return ocs.Result{
			CCT: kr.CCT, Reconfigs: kr.Reconfigs, ConfTime: kr.ConfTime, TransTime: kr.TransTime, Flows: kr.Flows,
		}, err
	})
}

// RunRecover simulates a K-core fabric executing one precomputed circuit
// schedule per core (plans[c] serves split[c]) under a fault plan that may
// kill cores outright. The simulator models unit-bandwidth cores only (Exec
// runs fabrics with faster ones). Recovery semantics:
//
//   - A core with no death event replays its plan; under per-core port
//     faults it runs the predictive recovery policy instead, so port
//     outages inside a surviving core heal as in the single-core model.
//   - A core that dies at tick t keeps whatever it drained before t; its
//     establishment in flight is interrupted at t and the rest of its share
//     becomes residual demand.
//   - All residual demand is pooled, re-split across the surviving cores
//     with SplitGreedy over the survivor sub-fabric, replanned per-survivor
//     with Reco-Sin, and executed after max(survivor's own finish, last
//     death tick) — the earliest the survivor is both idle and certain the
//     data is lost. Dead cores that later recover are not reused.
//
// The per-core port constraint holds throughout: each surviving core's
// merged flow schedule (own plan + replanned residual) is a valid
// single-switch schedule, which the seeded fault tests verify.
func RunRecover(topo Topology, split []*matrix.Matrix, plans []ocs.CircuitSchedule, kfs *faults.KSchedule) (*KResult, error) {
	if err := check(topo, split, plans); err != nil {
		return nil, err
	}
	for c, cr := range topo.Cores {
		if cr.Bandwidth != 1 {
			return nil, fmt.Errorf("%w: core %d bandwidth %d (simulated cores are unit-bandwidth; use Exec)",
				ErrTopology, c, cr.Bandwidth)
		}
	}
	n := split[0].N()
	if err := kfs.Validate(n, topo.K()); err != nil {
		return nil, err
	}

	// Phase 1: every core runs its own plan; a dying core runs against its
	// own faults up to the death, then every port dark.
	perCore := make([]ocs.Result, topo.K())
	var dead, survivors []int
	var availability int64 // last death tick: when pooled residuals are final
	pool, _ := matrix.New(n)
	for c, cr := range topo.Cores {
		coreFS := kfs.Core(c)
		var r *ocs.Result
		var err error
		if t := kfs.FirstDown(c); t >= 0 {
			// Stranded demand (ErrUnservable) and a plan that ran out against
			// unreachable ports (ErrStalled) are how a dying core's replay
			// legitimately ends: collect what it never sent.
			r, err = sim.RunFaults(split[c], sim.NewReplay(plans[c]), cr.Delta, deadCoreSchedule(coreFS, n, t))
			if errors.Is(err, ocs.ErrUnservable) || errors.Is(err, sim.ErrStalled) {
				dead = append(dead, c)
				availability = max(availability, t)
				r.Residual.ForEachNonZero(func(i, j int, v int64) { pool.Add(i, j, v) })
				err = nil
			}
		} else {
			survivors = append(survivors, c)
			if coreFS.Empty() {
				r, err = sim.RunFaults(split[c], sim.NewReplay(plans[c]), cr.Delta, nil)
			} else {
				replay, replayErr := sim.RunFaults(split[c], sim.NewReplayLoop(plans[c]), cr.Delta, coreFS)
				if replayErr != nil {
					replay = nil
				}
				r, err = sim.RunPredictive(split[c], cr.Delta, coreFS, replay)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("core %d: %w", c, err)
		}
		perCore[c] = *r
	}

	// Phase 2: re-split the pooled residual over the survivor sub-fabric and
	// serve each survivor's extra share after its own plan finishes.
	// With no survivor the demand is stranded, and the partial result is
	// still folded and published.
	replanned := pool.Total()
	var stranded error
	if replanned != 0 && len(survivors) == 0 {
		stranded = fmt.Errorf("%w: %d ticks stranded on dead cores", ocs.ErrUnservable, replanned)
	} else if replanned != 0 {
		var sub Topology
		for _, c := range survivors {
			sub.Cores = append(sub.Cores, topo.Cores[c])
		}
		extra, err := SplitGreedy(pool, sub)
		if err != nil {
			return nil, fmt.Errorf("resplit: %w", err)
		}
		for si, c := range survivors {
			if extra[si].IsZero() {
				continue
			}
			delta := topo.Cores[c].Delta
			plan2, err := core.RecoSin(extra[si], delta)
			if err != nil {
				return nil, fmt.Errorf("core %d replan: %w", c, err)
			}
			r2, err := sim.RunFaults(extra[si], sim.NewReplay(plan2), delta, nil)
			if err != nil {
				return nil, fmt.Errorf("core %d replanned run: %w", c, err)
			}
			appendShifted(&perCore[c], r2, max(perCore[c].CCT, availability))
		}
	}
	kr := fold(perCore, nil)
	kr.DeadCores, kr.ReplannedTicks = dead, replanned
	flushKObs(&kr)
	return &kr, stranded
}

// deadCoreSchedule builds the fault schedule that kills every port of an
// n-port core at tick t: the core's own faults up to the death, then
// permanent darkness. Establishments in flight at t are interrupted exactly
// like a fabric-wide port outage.
func deadCoreSchedule(fs *faults.Schedule, n int, t int64) *faults.Schedule {
	dead := &faults.Schedule{}
	if fs != nil {
		dead.SetupFailProb = fs.SetupFailProb
		dead.JitterBound = fs.JitterBound
		dead.Seed = fs.Seed
		for _, ev := range fs.PortEvents {
			if ev.Tick < t {
				dead.PortEvents = append(dead.PortEvents, ev)
			}
		}
	}
	for p := 0; p < n; p++ {
		dead.PortEvents = append(dead.PortEvents, faults.PortEvent{Tick: t, Port: p, Down: true})
	}
	return dead
}

// appendShifted merges a replanned run executed offset ticks into the future
// onto a core's phase-1 result.
func appendShifted(dst, src *ocs.Result, offset int64) {
	dst.CCT = offset + src.CCT
	dst.Reconfigs += src.Reconfigs
	dst.ConfTime += src.ConfTime
	dst.TransTime = dst.CCT - dst.ConfTime
	dst.SetupFailures += src.SetupFailures
	for _, f := range src.Flows {
		f.Start += offset
		f.End += offset
		dst.Flows = append(dst.Flows, f)
	}
	for _, tr := range src.Log {
		tr.Start += offset
		tr.Up += offset
		tr.Down += offset
		dst.Log = append(dst.Log, tr)
	}
	for _, fr := range src.Faults {
		fr.Tick += offset
		dst.Faults = append(dst.Faults, fr)
	}
}

// flushKObs publishes a finished K-core run: fabric-level counters plus one
// Gantt track per core ("core 0", "core 1", …) with reconfiguration and
// transmission spans on the simulated-time axis, so a trace viewer shows the
// cores draining in parallel.
func flushKObs(kr *KResult) {
	snk := obs.Current()
	if snk == nil {
		return
	}
	snk.Inc("sim_kcore_runs_total")
	snk.Count("sim_kcore_cores_total", int64(len(kr.PerCore)))
	snk.Count("sim_kcore_dead_cores_total", int64(len(kr.DeadCores)))
	snk.Count("sim_kcore_replanned_ticks_total", kr.ReplannedTicks)
	snk.ObserveBuckets("sim_kcore_cct_ticks", obs.TickBuckets, float64(kr.CCT))
	if snk.Trace == nil {
		return
	}
	for c, r := range kr.PerCore {
		sim.TraceLog(snk, fmt.Sprintf("core %d", c), r.Log)
	}
}
