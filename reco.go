// Package reco is a library for coflow scheduling in optical circuit
// switches (OCS), implementing the Reco algorithms of Zhang et al.,
// "Reco: Efficient Regularization-Based Coflow Scheduling in Optical Circuit
// Switches" (ICDCS 2019), together with the substrates and baselines needed
// to reproduce the paper's evaluation.
//
// # Model
//
// The datacenter fabric is one non-blocking N×N optical circuit switch.
// Time is measured in integer ticks (the repository convention is 1 tick =
// 1 µs of transmission at the normalized circuit bandwidth, so one megabyte
// at 100 Gb/s is 80 ticks). A coflow is a demand matrix: entry (i, j) is the
// transmission time needed from ingress port i to egress port j. Circuits
// obey the port constraint (one circuit per port) and every reconfiguration
// halts the switch for Delta ticks (the all-stop model).
//
// # Single coflows
//
// ScheduleSingle runs Reco-Sin: the demand is regularized (entries rounded
// up to multiples of Delta), stuffed doubly stochastic, and decomposed into
// circuit assignments by max–min Birkhoff–von Neumann extraction. The
// resulting completion time is at most twice the lower bound ρ + τ·Delta.
//
// # Multiple coflows
//
// ScheduleMultiple runs Reco-Mul: a weighted-completion-time permutation, a
// non-preemptive packet-switch schedule, and the regularization-based
// transformation into a feasible OCS schedule whose reconfiguration cost is
// provably bounded.
//
// # Going further
//
// Workload generation (Generate, ParseTrace), baseline schedulers, both
// switch executors and the full experiment harness live in the internal
// packages and are exercised by cmd/recobench, cmd/recosim, cmd/recotrace,
// and the examples/ directory.
package reco

import (
	"context"
	"fmt"

	"reco/internal/algo"
	_ "reco/internal/algo/builtin" // the reco-sin and reco-mul rows
	"reco/internal/core"
	"reco/internal/hybrid"
	"reco/internal/matrix"
	"reco/internal/ocs"
	"reco/internal/online"
	"reco/internal/schedule"
	"reco/internal/workload"
)

// Demand is a coflow demand matrix over an N×N switch: entry (i, j) is the
// number of ticks of transmission required from ingress i to egress j.
type Demand = matrix.Matrix

// NewDemand returns an all-zero n×n demand matrix.
func NewDemand(n int) (*Demand, error) { return matrix.New(n) }

// DemandFromRows builds a demand matrix from row slices.
func DemandFromRows(rows [][]int64) (*Demand, error) { return matrix.FromRows(rows) }

// CircuitAssignment is one circuit establishment: Perm[i] is the egress port
// connected to ingress i (or −1 for idle), held for Dur ticks.
type CircuitAssignment = ocs.Assignment

// FlowInterval is one scheduled flow transmission; see the schedule package
// for field semantics.
type FlowInterval = schedule.FlowInterval

// Coflow pairs a demand matrix with a scheduling weight.
type Coflow = workload.Coflow

// SingleResult is the outcome of scheduling one coflow with Reco-Sin.
type SingleResult struct {
	// Schedule is the circuit schedule produced by Reco-Sin.
	Schedule []CircuitAssignment
	// CCT is the coflow completion time under the all-stop executor.
	CCT int64
	// Reconfigs is the number of circuit reconfigurations performed.
	Reconfigs int
	// LowerBound is ρ + τ·Delta; CCT ≤ 2·LowerBound (Theorem 2).
	LowerBound int64
	// Flows is the executed flow-level schedule.
	Flows []FlowInterval
}

// ScheduleSingle schedules one coflow with Reco-Sin under the all-stop model
// with reconfiguration delay delta (in ticks) and reports the executed
// outcome. It runs the registry's reco-sin row, which refuses a request
// algo.ValidateRequest rejects (a negative delta, say, or a completion
// bound 2·(ρ + n·delta) beyond int64 ticks) with an error wrapping
// algo.ErrBadRequest.
func ScheduleSingle(d *Demand, delta int64) (*SingleResult, error) {
	res, err := algo.MustGet(algo.NameRecoSin).Schedule(context.Background(),
		algo.Request{Demands: []*matrix.Matrix{d}, Delta: delta})
	if err != nil {
		return nil, fmt.Errorf("reco: %w", err)
	}
	return &SingleResult{
		Schedule:   res.Schedules[0],
		CCT:        res.CCTs[0],
		Reconfigs:  res.Reconfigs,
		LowerBound: ocs.LowerBound(d, delta),
		Flows:      res.Flows,
	}, nil
}

// MultiResult is the outcome of scheduling a batch of coflows with Reco-Mul.
type MultiResult struct {
	// Flows is the feasible all-stop OCS schedule.
	Flows []FlowInterval
	// CCTs[k] is the completion time of coflow k.
	CCTs []int64
	// Reconfigs is the number of all-stop reconfigurations performed.
	Reconfigs int
	// TotalWeightedCCT is Σ w_k·CCT_k.
	TotalWeightedCCT float64
}

// ScheduleMultiple schedules the coflows with the full Reco-Mul pipeline:
// primal–dual ordering, non-preemptive packet-switch schedule, and the
// Algorithm 2 transformation, under the all-stop model with reconfiguration
// delay delta and optical transmission threshold c (non-zero demands are
// expected to be at least c·delta; smaller demands are still scheduled
// correctly). A nil weights slice means unit weights. It runs the
// registry's reco-mul row: a request algo.ValidateRequest rejects (as for
// ScheduleSingle, or demands of different sizes, or a negative or
// non-finite weight) is an error wrapping algo.ErrBadRequest.
func ScheduleMultiple(demands []*Demand, weights []float64, delta, c int64) (*MultiResult, error) {
	res, err := algo.MustGet(algo.NameRecoMul).Schedule(context.Background(),
		algo.Request{Demands: demands, Weights: weights, Delta: delta, C: c})
	if err != nil {
		return nil, fmt.Errorf("reco: %w", err)
	}
	return &MultiResult{
		Flows:            res.Flows,
		CCTs:             res.CCTs,
		Reconfigs:        res.Reconfigs,
		TotalWeightedCCT: schedule.TotalWeighted(res.CCTs, weights),
	}, nil
}

// LowerBound returns the single-coflow CCT lower bound ρ + τ·delta.
func LowerBound(d *Demand, delta int64) int64 { return ocs.LowerBound(d, delta) }

// Regularize rounds every demand entry up to the next multiple of delta —
// the paper's regularization operation on traffic demands.
func Regularize(d *Demand, delta int64) *Demand { return core.Regularize(d, delta) }

// ApproximationRatio returns Reco-Mul's guarantee Δ·(1+1/⌊√c⌋)² when driven
// by a packet-switch algorithm with approximation ratio delta4 (Theorem 3).
func ApproximationRatio(delta4 float64, c int64) float64 {
	return core.ApproxRatioMul(delta4, c)
}

// GenerateWorkload produces a reproducible synthetic Facebook-like coflow
// workload matching the paper's published statistics; see
// internal/workload.GenConfig for the knobs behind these parameters.
func GenerateWorkload(n, numCoflows int, seed int64) ([]Coflow, error) {
	return workload.Generate(workload.GenConfig{N: n, NumCoflows: numCoflows, Seed: seed})
}

// Arrival is a coflow arriving at a point in time, for online scheduling.
type Arrival = online.Arrival

// OnlineResult reports an online scheduling simulation.
type OnlineResult = online.Result

// Online policies accepted by SimulateArrivals.
const (
	// PolicyFIFO serves pending coflows one at a time in arrival order.
	PolicyFIFO = "fifo"
	// PolicySEBF serves one coflow at a time, smallest bottleneck first.
	PolicySEBF = "sebf"
	// PolicyBatch serves every pending coflow together through Reco-Mul.
	PolicyBatch = "batch"
	// PolicyDisjoint co-schedules port-disjoint pending coflows.
	PolicyDisjoint = "disjoint"
)

// SimulateArrivals runs the event-driven online controller over a coflow
// arrival stream with the named policy (see the Policy constants). Single
// coflows are scheduled with Reco-Sin, batches with the Reco-Mul pipeline,
// and a unit either one refuses is an error wrapping algo.ErrBadRequest.
func SimulateArrivals(arrivals []Arrival, policy string, delta, c int64) (*OnlineResult, error) {
	var pol online.Policy
	switch policy {
	case PolicyFIFO:
		pol = online.FIFO{}
	case PolicySEBF:
		pol = online.SEBF{}
	case PolicyBatch:
		pol = online.Batch{}
	case PolicyDisjoint:
		pol = online.DisjointBatch{}
	default:
		return nil, fmt.Errorf("reco: unknown online policy %q", policy)
	}
	res, err := online.Simulate(arrivals, pol, delta, c)
	if err != nil {
		return nil, fmt.Errorf("reco: %w", err)
	}
	return res, nil
}

// ArrivalTimes draws a reproducible Poisson-like arrival process: n arrival
// instants with exponential gaps of the given mean.
func ArrivalTimes(n int, meanGap, seed int64) ([]int64, error) {
	return workload.ArrivalTimes(n, meanGap, seed)
}

// HybridResult reports a hybrid circuit/packet run of one coflow.
type HybridResult = hybrid.Result

// ScheduleHybrid runs one coflow through a hybrid network: entries of at
// least threshold take the OCS (scheduled by Reco-Sin with reconfiguration
// delay delta), the rest take a packet network slowdown× slower, both in
// parallel (Sec. VI's deployment model).
func ScheduleHybrid(d *Demand, delta, threshold, slowdown int64) (*HybridResult, error) {
	res, err := hybrid.Schedule(context.Background(), d, hybrid.Config{Delta: delta, Threshold: threshold, PacketSlowdown: slowdown})
	if err != nil {
		return nil, fmt.Errorf("reco: %w", err)
	}
	return res, nil
}
