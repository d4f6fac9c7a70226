// Package kcore implements the O(K)-approximation coflow scheduler for
// K-core optical circuit switching fabrics ("An O(K)-Approximation Coflow
// Scheduling in K-Core Optical Circuit Switching Networks" and "Scheduling
// Coflows in Multi-Core OCS Networks with Performance Guarantee",
// PAPERS.md). The algorithm has three moves:
//
//  1. Order coflows by SEBF (shortest effective bottleneck first) — the
//     K-core bottleneck ρ/K scales every coflow uniformly, so the
//     single-switch order is the K-core order.
//  2. Split each coflow's demand across the K cores, entry-granular,
//     balancing each port's per-core load and establishment count
//     (SplitGreedy; SplitRoundRobin is the naive baseline).
//  3. Schedule each core's share independently with Reco-Sin — regularize,
//     stuff, max-min BvN — and run the K per-core schedules in parallel.
//
// Each core share satisfies its own ρ_c + τ_c·δ bound within a factor of 2
// (the paper's Theorem 2 per core), and the greedy split keeps
// max_c(ρ_c + τ_c·δ) within O(1) of (ρ/K + ⌈τ/K⌉·δ), which yields the
// O(K)-approximation against the K-core lower bound
// LowerBound = ⌈ρ/B⌉ + ⌈τ/K⌉·δ_min. See docs/TOPOLOGY.md for the
// full sketch. At K = 1 every step degenerates to the paper's single-switch
// Reco-Sin pipeline.
//
// The fabric is this package's too (Topology: K cores sharing the demand's
// N ports, each with its own bandwidth and δ; the K-core LowerBound), and
// so is running a split on it: every core is one ocs.Core event loop on its
// share, and a K-core result is the fold of the per-core ones — the maximum
// CCT, the sum of everything else. Exec does it analytically at each core's
// bandwidth, RunRecover under a fault plan that may kill cores.
package kcore

import (
	"context"
	"errors"
	"fmt"

	"reco/internal/core"
	"reco/internal/matrix"
	"reco/internal/ocs"
	"reco/internal/ordering"
)

// ErrBadStrategy reports an unknown demand-splitting strategy.
var ErrBadStrategy = errors.New("kcore: unknown split strategy")

// Strategy selects how demand is split across cores.
type Strategy int

const (
	// Greedy is the load-balanced LPT-style split of the O(K) algorithm.
	Greedy Strategy = iota + 1
	// RoundRobin deals entries to cores cyclically — the naive baseline the
	// experiments compare against.
	RoundRobin
)

// String renders the strategy for experiment rows.
func (s Strategy) String() string {
	switch s {
	case Greedy:
		return "greedy"
	case RoundRobin:
		return "roundrobin"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// split dispatches on the strategy.
func split(d *matrix.Matrix, topo Topology, strat Strategy) ([]*matrix.Matrix, error) {
	switch strat {
	case Greedy:
		return SplitGreedy(d, topo)
	case RoundRobin:
		return SplitRoundRobin(d, topo)
	}
	return nil, fmt.Errorf("%w: %d", ErrBadStrategy, int(strat))
}

// PlanCoflow splits one coflow's demand across topo's cores and builds a
// Reco-Sin circuit schedule per share: plans[c] runs on core c. The returned
// split and plans feed Exec (analytic execution) or RunRecover (faulted
// simulation). Zero shares get empty schedules.
func PlanCoflow(ctx context.Context, d *matrix.Matrix, topo Topology, strat Strategy) ([]*matrix.Matrix, []ocs.CircuitSchedule, error) {
	shares, err := split(d, topo, strat)
	if err != nil {
		return nil, nil, err
	}
	plans := make([]ocs.CircuitSchedule, len(shares))
	for c, share := range shares {
		cs, err := core.RecoSinCtx(ctx, share, topo.Cores[c].Delta)
		if err != nil {
			return nil, nil, fmt.Errorf("kcore: core %d: %w", c, err)
		}
		plans[c] = cs
	}
	return shares, plans, nil
}

// BatchResult is a scheduled coflow batch with its per-core plans, ready
// for analytic execution or fault simulation.
type BatchResult struct {
	// Order is the SEBF service order over the batch.
	Order []int
	// Splits[k] and Plans[k] are coflow k's demand split and per-core
	// schedules.
	Splits [][]*matrix.Matrix
	Plans  [][]ocs.CircuitSchedule
	// Seq is the executed result: coflows back-to-back, cores in parallel
	// inside each coflow's window.
	Seq ocs.SeqResult
}

// ScheduleBatch runs the full O(K) pipeline over a coflow batch: SEBF
// order, per-coflow split + per-core Reco-Sin, sequential execution of the
// coflows with all K cores serving each coflow in parallel. flows selects
// whether Seq records the flow-level schedule (ExecSequential).
func ScheduleBatch(ctx context.Context, ds []*matrix.Matrix, topo Topology, strat Strategy, flows bool) (*BatchResult, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if len(ds) == 0 {
		return nil, fmt.Errorf("kcore: empty batch")
	}
	res := &BatchResult{
		Order:  ordering.SEBF(ds),
		Splits: make([][]*matrix.Matrix, len(ds)),
		Plans:  make([][]ocs.CircuitSchedule, len(ds)),
	}
	for k, d := range ds {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		shares, plans, err := PlanCoflow(ctx, d, topo, strat)
		if err != nil {
			return nil, fmt.Errorf("coflow %d: %w", k, err)
		}
		res.Splits[k] = shares
		res.Plans[k] = plans
	}
	seq, err := ExecSequential(topo, res.Splits, res.Plans, res.Order, flows)
	if err != nil {
		return nil, err
	}
	res.Seq = seq
	return res, nil
}
