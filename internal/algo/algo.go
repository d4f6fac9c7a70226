// Package algo defines the repository's canonical scheduling-algorithm
// abstraction: one Scheduler interface, one request shape and one result
// shape shared by every consumer layer — the public facade, the recosim
// CLI, the HTTP API, the experiment tables and the online controller. A
// consumer that replays an algorithm asks the registry for it, so the
// request is validated once, by ValidateRequest, whoever sends it.
//
// Implementations live in the algo/builtin sub-package and register
// themselves in the process-global registry; consumers blank-import
// reco/internal/algo/builtin and resolve algorithms by name. Keeping this
// package free of scheduler imports (it depends only on the matrix, ocs and
// schedule data types) is what lets every layer — including packages the
// schedulers themselves depend on, such as the fault simulator in
// internal/sim — share the name constants without import cycles.
package algo

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"

	"reco/internal/matrix"
	"reco/internal/ocs"
	"reco/internal/schedule"
)

// ErrBadRequest reports a malformed Request; API layers map it to a 400.
var ErrBadRequest = errors.New("algo: bad request")

// Canonical algorithm names. These are the only spellings of the algorithm
// identifiers in the repository: CLI flags, API fields, experiment rows and
// online-policy labels all derive from them.
const (
	// NameRecoSin is Reco-Sin (Algorithm 1) applied per coflow, coflows
	// served back-to-back in input order.
	NameRecoSin = "reco-sin"
	// NameRecoMul is the full Reco-Mul pipeline (Algorithm 2 over the
	// primal–dual packet-switch list schedule).
	NameRecoMul = "reco-mul"
	// NameSolstice is Solstice per coflow, back-to-back.
	NameSolstice = "solstice"
	// NameSEBFSolstice is SEBF coflow order + Solstice per coflow.
	NameSEBFSolstice = "sebf-solstice"
	// NameLPIIGB is the sequential LP-II-GB baseline: LP-estimate order,
	// first-fit BvN per coflow.
	NameLPIIGB = "lp-ii-gb"
	// NameLPIIGBGroup is the grouped LP-II-GB construction (aggregated
	// per-interval schedules).
	NameLPIIGBGroup = "lp-ii-gb-group"
	// NameSunflow is Sunflow's one-circuit-per-flow not-all-stop scheduler,
	// coflows served back-to-back.
	NameSunflow = "sunflow"
	// NameTMSBvN is Traffic Matrix Scheduling: first-fit BvN per coflow.
	NameTMSBvN = "tms-bvn"
	// NameHelios is the Helios/c-Through slotted max-weight-matching
	// scheduler (slot = 4·δ by the repository's convention).
	NameHelios = "helios"
	// NameEclipse is the Eclipse-style greedy throughput-per-cost scheduler.
	NameEclipse = "eclipse"
	// NameHybrid is the hybrid circuit/packet split: elephants via Reco-Sin
	// on the OCS, mice via a slowed-down packet switch.
	NameHybrid = "hybrid"
	// NameKCore is the K-core O(K)-approximation scheduler: SEBF coflow
	// order, load-balanced demand splitting across Request.Cores switching
	// cores, Reco-Sin per core share.
	NameKCore = "kcore"
	// NameRecoSparse is the sparsity-bounded Reco-Sin variant: at most
	// Request.K max–min BvN terms plus full-drain cleanup establishments
	// covering the residual.
	NameRecoSparse = "reco-sparse"
	// NameHybridFluid is the rate-based hybrid circuit/packet scheduler: a
	// joint fluid assignment of every (src, dst) demand to an optical
	// circuit share plus a time-varying electrical rate, the electrical
	// fabric running at the Request.ElecFrac fraction of a circuit lane.
	NameHybridFluid = "hybrid-fluid"
)

// Capabilities describes what a Scheduler supports, for dispatchers that
// must pick (or reject) algorithms by shape and for the /v1/algorithms
// listing, whose wire form is this struct's JSON.
type Capabilities struct {
	// SingleCoflow: the algorithm meaningfully schedules one coflow.
	SingleCoflow bool `json:"singleCoflow"`
	// MultiCoflow: the algorithm is natively coflow-aware across a batch
	// (ordering or joint optimization), rather than serving a batch as
	// independent back-to-back coflows.
	MultiCoflow bool `json:"multiCoflow"`
	// NotAllStop: reconfigurations stall only the ports involved; false
	// means the all-stop model.
	NotAllStop bool `json:"notAllStop"`
	// FlowLevel: Result.Flows carries the complete flow-level schedule,
	// unless the request set NoFlows. Aggregate-only algorithms (hybrid,
	// hybrid-fluid) report CCTs and reconfiguration counts without per-flow
	// intervals.
	FlowLevel bool `json:"flowLevel"`
	// Cores, Sparse and Hybrid each own one knob (see KnobTable): the
	// algorithm honors it, and CheckKnobs rejects a request that sets the
	// knob for an algorithm without the capability, which would silently
	// ignore it. Cores: a multi-core fabric. Sparse: a bound on BvN
	// permutation terms. Hybrid: an electrical fabric beside the circuits.
	Cores  bool `json:"cores"`
	Sparse bool `json:"sparse"`
	Hybrid bool `json:"hybrid"`
}

// Tags renders the capability flags compactly, e.g. "[single multi flows]"
// or "[single not-all-stop]"; a knob's Cap names one of these tags.
func (c Capabilities) Tags() string {
	var tags []string
	for _, t := range []struct {
		on  bool
		tag string
	}{
		{c.SingleCoflow, "single"}, {c.MultiCoflow, "multi"}, {c.NotAllStop, "not-all-stop"},
		{c.FlowLevel, "flows"}, {c.Cores, "cores"}, {c.Sparse, "sparse"}, {c.Hybrid, "hybrid"},
	} {
		if t.on {
			tags = append(tags, t.tag)
		}
	}
	return "[" + strings.Join(tags, " ") + "]"
}

// Request is the unified scheduling input: a coflow set with optional
// weights, the reconfiguration delay δ and the optical transmission
// threshold c. Single-coflow scheduling is a one-element Demands slice.
type Request struct {
	// Demands holds one square demand matrix per coflow; all matrices share
	// one dimension.
	Demands []*matrix.Matrix
	// Weights are per-coflow weights; nil means unit weights.
	Weights []float64
	// Delta is the reconfiguration delay in ticks.
	Delta int64
	// C is the optical transmission threshold (Reco-Mul's grid parameter);
	// algorithms that do not use it ignore it.
	C int64
	// Knobs are the optional tuning values; only algorithms with a knob's
	// capability honor it.
	Knobs
	// NoFlows says the caller reads CCTs, Reconfigs and Schedules only, so
	// a scheduler may leave Result.Flows nil instead of building a flow
	// list nobody reads (on a dense coflow the largest thing a run
	// allocates). The per-coflow entries (reco-sin, solstice,
	// sebf-solstice, tms-bvn, helios, eclipse, reco-sparse), lp-ii-gb,
	// lp-ii-gb-group and kcore honour it; reco-mul and sunflow derive their
	// CCTs from their flows and build them anyway. The API's single-coflow
	// decoders and the experiment tables set it; it is not a wire field. The
	// plan cache keys on it, so a plan without flows never answers a
	// request that reads them.
	NoFlows bool
}

// Result is the unified scheduling output.
type Result struct {
	// CCTs[k] is coflow k's completion time (all arrivals at time zero, so
	// waiting for earlier coflows counts toward the CCT).
	CCTs []int64
	// Reconfigs is the total number of circuit reconfigurations (circuit
	// establishments for not-all-stop algorithms).
	Reconfigs int
	// Flows is the flow-level schedule with per-coflow attribution; nil when
	// the algorithm's Capabilities.FlowLevel is false, and possibly nil when
	// the request set NoFlows.
	Flows schedule.FlowSchedule
	// Schedules[k] is coflow k's circuit schedule for algorithms that build
	// one explicit circuit schedule per coflow; nil otherwise (pipeline and
	// grouped algorithms emit flows without per-coflow circuit lists).
	Schedules []ocs.CircuitSchedule
}

// Scheduler is one scheduling algorithm.
type Scheduler interface {
	// Name returns the canonical registry name.
	Name() string
	// Describe returns a one-line human-readable description.
	Describe() string
	// Caps reports the algorithm's capabilities.
	Caps() Capabilities
	// Schedule runs the algorithm. Implementations check ctx periodically in
	// their long-running loops (LP solves, BvN extraction, per-coflow scans)
	// and return ctx.Err() promptly once it is cancelled. They do not call
	// ValidateRequest: the registry has, by the time this runs.
	Schedule(ctx context.Context, req Request) (*Result, error)
}

// ValidateRequest checks the shape shared by every algorithm: at least one
// demand matrix, all matrices present and of one dimension, δ and c
// non-negative with c·δ representable (Reco-Mul's grid ⌊√c⌋·δ and hybrid's
// elephant threshold c·δ are products of the two; the check runs for every
// algorithm, and a request shape without a c field — the API's single
// endpoint, recosim without -c — carries the default c = 4, so there a
// single-coflow δ above MaxInt64/4 is refused too), weights finite and
// non-negative (a list shorter than Demands is legal:
// missing entries mean 1), knobs in range, and demand small enough for
// int64 tick arithmetic: the batch's back-to-back completion bound
// Σ 2·(ρ + n·δ) — Theorem 2's bound on one coflow's CCT, summed over the
// coflows — must be representable, and so must each coflow's largest built
// total n·(ρ + n·δ), a regularized and stuffed matrix's, or row sums,
// totals and clocks downstream wrap silently. The registry runs it before
// every Scheduler.Schedule.
func ValidateRequest(req Request) error {
	if len(req.Demands) == 0 {
		return fmt.Errorf("%w: no demand matrices", ErrBadRequest)
	}
	n := 0
	for k, d := range req.Demands {
		if d == nil {
			return fmt.Errorf("%w: demand %d is nil", ErrBadRequest, k)
		}
		if k == 0 {
			n = d.N()
		} else if d.N() != n {
			return fmt.Errorf("%w: demand %d has dimension %d, want %d", ErrBadRequest, k, d.N(), n)
		}
	}
	if req.Delta < 0 {
		return fmt.Errorf("%w: negative delta %d", ErrBadRequest, req.Delta)
	}
	if req.C < 0 {
		return fmt.Errorf("%w: negative c %d", ErrBadRequest, req.C)
	}
	if req.Delta > 0 && req.C > math.MaxInt64/req.Delta {
		return fmt.Errorf("%w: c*delta = %d*%d overflows int64 ticks (c is 4 where the request has no c field)", ErrBadRequest, req.C, req.Delta)
	}
	for k, w := range req.Weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("%w: weight %d must be finite and non-negative, got %v", ErrBadRequest, k, w)
		}
	}
	if err := req.Knobs.Validate(); err != nil {
		return err
	}
	// Σ 2·(ρ + n·δ) ≤ MaxInt64, spent coflow by coflow from a budget of
	// MaxInt64/2 so that nothing here can itself overflow; then the coflow's
	// n·(ρ + n·δ) ≤ MaxInt64, tested by division.
	budget := int64(math.MaxInt64 / 2)
	for k, d := range req.Demands {
		rho, ok := d.CheckedMaxRowColSum()
		if !ok || req.Delta > budget/int64(n) || rho > budget-int64(n)*req.Delta {
			return fmt.Errorf("%w: demand %d: completion bound 2*(rho + n*delta) overflows int64 ticks", ErrBadRequest, k)
		}
		built := rho + int64(n)*req.Delta
		if built > math.MaxInt64/int64(n) {
			return fmt.Errorf("%w: demand %d: stuffed total n*(rho + n*delta) overflows int64 ticks", ErrBadRequest, k)
		}
		budget -= built
	}
	return nil
}
