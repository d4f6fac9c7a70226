package faults

import (
	"fmt"
	"sort"

	"reco/internal/parallel"
)

// streamCore salts the per-core failure draws of GenerateK, separating them
// from the setup/jitter/port streams.
const streamCore int64 = 4

// CoreEvent is one switching-core state transition on a K-core fabric: at
// Tick, core Core dies (Down) or comes back (!Down). A dead core drops every
// circuit it carries and cannot establish new ones; the other cores are
// unaffected.
type CoreEvent struct {
	Tick int64
	Core int
	Down bool
}

// KSchedule is a deterministic fault plan for a K-core run: one per-core
// Schedule (port events, setup failures, δ jitter, all scoped to that core's
// establishments) plus fabric-wide core death/recovery events. The zero
// value (and nil) injects no faults.
type KSchedule struct {
	// Cores[c] is core c's fault schedule; nil entries (or a short slice)
	// mean that core runs fault-free.
	Cores []*Schedule
	// CoreEvents are core up/down transitions, sorted by Tick then Core.
	CoreEvents []CoreEvent
}

// Empty reports whether ks injects no faults at all.
func (ks *KSchedule) Empty() bool {
	if ks == nil {
		return true
	}
	if len(ks.CoreEvents) > 0 {
		return false
	}
	for _, s := range ks.Cores {
		if !s.Empty() {
			return false
		}
	}
	return true
}

// Core returns core c's per-core fault schedule, or nil (the empty schedule)
// when none was configured. Safe on a nil receiver.
func (ks *KSchedule) Core(c int) *Schedule {
	if ks == nil || c < 0 || c >= len(ks.Cores) {
		return nil
	}
	return ks.Cores[c]
}

// FirstDown returns the tick of core c's first death event, or -1 when the
// core never dies.
func (ks *KSchedule) FirstDown(c int) int64 {
	if ks == nil {
		return -1
	}
	for _, ev := range ks.CoreEvents {
		if ev.Core == c && ev.Down {
			return ev.Tick
		}
	}
	return -1
}

// Validate checks ks against an n-port, k-core fabric.
func (ks *KSchedule) Validate(n, k int) error {
	if ks == nil {
		return nil
	}
	if len(ks.Cores) > k {
		return fmt.Errorf("%w: %d per-core schedules for %d cores", ErrBadSchedule, len(ks.Cores), k)
	}
	for c, s := range ks.Cores {
		if err := s.Validate(n); err != nil {
			return fmt.Errorf("core %d: %w", c, err)
		}
	}
	for i, ev := range ks.CoreEvents {
		if ev.Core < 0 || ev.Core >= k {
			return fmt.Errorf("%w: core event %d on core %d outside fabric of %d cores", ErrBadSchedule, i, ev.Core, k)
		}
		if ev.Tick < 0 {
			return fmt.Errorf("%w: core event %d at negative tick %d", ErrBadSchedule, i, ev.Tick)
		}
		if i > 0 && ev.Tick < ks.CoreEvents[i-1].Tick {
			return fmt.Errorf("%w: core events not sorted at index %d", ErrBadSchedule, i)
		}
	}
	return nil
}

// KGenConfig parameterizes GenerateK.
type KGenConfig struct {
	// N and K are the fabric's port and core counts.
	N, K int
	// Seed drives every draw; equal configs generate equal plans.
	Seed int64
	// Horizon is the window [0, Horizon) in which cores and ports fail.
	// Required when CoreFailRate or PortFailRate is positive.
	Horizon int64
	// CoreFailRate is each core's probability of dying once within the
	// horizon, in [0, 1].
	CoreFailRate float64
	// CoreRepairAfter is how long a dead core stays down before coming back.
	// Zero means dead cores never recover.
	CoreRepairAfter int64
	// PortFailRate, RepairAfter, SetupFailProb and JitterBound parameterize
	// each core's per-core Schedule exactly as in GenConfig; every core draws
	// from its own derived seed, so per-core faults are independent.
	PortFailRate  float64
	RepairAfter   int64
	SetupFailProb float64
	JitterBound   int64
}

// GenerateK builds a deterministic K-core fault plan: each core derives its
// own Schedule seed via SplitMix64 (independent port/setup/jitter faults per
// core) and draws its death from the streamCore stream, so the same config
// always yields the same plan regardless of K iteration order.
func GenerateK(cfg KGenConfig) (*KSchedule, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("%w: %d cores", ErrBadSchedule, cfg.K)
	}
	if !(0 <= cfg.CoreFailRate && cfg.CoreFailRate <= 1) { // negated: NaN fails every comparison
		return nil, fmt.Errorf("%w: core-failure rate %v outside [0,1]", ErrBadSchedule, cfg.CoreFailRate)
	}
	if cfg.CoreFailRate > 0 && cfg.Horizon <= 0 {
		return nil, fmt.Errorf("%w: core failures need a positive horizon, got %d", ErrBadSchedule, cfg.Horizon)
	}
	if cfg.CoreRepairAfter < 0 {
		return nil, fmt.Errorf("%w: negative core repair time %d", ErrBadSchedule, cfg.CoreRepairAfter)
	}
	ks := &KSchedule{Cores: make([]*Schedule, cfg.K)}
	for c := 0; c < cfg.K; c++ {
		coreSeed := parallel.Seed(cfg.Seed, streamCore, int64(c))
		s, err := Generate(GenConfig{
			N:             cfg.N,
			Seed:          coreSeed,
			Horizon:       cfg.Horizon,
			PortFailRate:  cfg.PortFailRate,
			RepairAfter:   cfg.RepairAfter,
			SetupFailProb: cfg.SetupFailProb,
			JitterBound:   cfg.JitterBound,
		})
		if err != nil {
			return nil, err
		}
		ks.Cores[c] = s
		rng := parallel.Rand(cfg.Seed, streamCore, int64(cfg.K)+int64(c))
		if cfg.CoreFailRate > 0 && rng.Float64() < cfg.CoreFailRate {
			die := rng.Int63n(cfg.Horizon)
			ks.CoreEvents = append(ks.CoreEvents, CoreEvent{Tick: die, Core: c, Down: true})
			if cfg.CoreRepairAfter > 0 {
				ks.CoreEvents = append(ks.CoreEvents, CoreEvent{Tick: die + cfg.CoreRepairAfter, Core: c, Down: false})
			}
		}
	}
	sort.Slice(ks.CoreEvents, func(a, b int) bool {
		if ks.CoreEvents[a].Tick != ks.CoreEvents[b].Tick {
			return ks.CoreEvents[a].Tick < ks.CoreEvents[b].Tick
		}
		return ks.CoreEvents[a].Core < ks.CoreEvents[b].Core
	})
	if err := ks.Validate(cfg.N, cfg.K); err != nil {
		return nil, err
	}
	return ks, nil
}
