// Package builtin registers every scheduling algorithm in the repository
// with the internal/algo registry. Consumers blank-import it:
//
//	import _ "reco/internal/algo/builtin"
//
// and resolve algorithms with algo.Get. The registry is one table of rows,
// each adapting one scheduling package to the unified algo.Scheduler
// contract without changing its numerical behavior: the six algorithms
// recosim historically dispatched by string switch produce byte-identical
// schedules and CCTs through the registry (proven by this package's
// differential tests), and the previously experiment-only baselines
// (Sunflow, TMS, Helios, Eclipse, hybrid) become reachable from the CLI and
// the HTTP API through the same door.
package builtin

import (
	"context"
	"fmt"
	"math"

	"reco/internal/algo"
	"reco/internal/core"
	"reco/internal/eclipse"
	"reco/internal/hybrid"
	"reco/internal/kcore"
	"reco/internal/lpiigb"
	"reco/internal/matrix"
	"reco/internal/ocs"
	"reco/internal/ordering"
	"reco/internal/schedule"
	"reco/internal/solstice"
	"reco/internal/sunflow"
	"reco/internal/tms"
)

// HeliosSlotFactor is the repository's Helios slot convention: the slotted
// scheduler holds each max-weight matching for HeliosSlotFactor·δ ticks
// (the ext-single experiment's historical choice).
const HeliosSlotFactor = 4

// MaxHeliosEntries caps the port entries a helios schedule may hold, which
// bounds its run time and memory: a coflow whose bound n·(nnz +
// ⌈total/slot⌉) exceeds it is refused as a bad request. Each slot either
// sends a full slot on some pair or empties one, so there are at most that
// many slots, each an n-entry permutation. The cap is twice the largest
// bound the experiment tables reach (16 557 300, at n = 60).
const MaxHeliosEntries = 1 << 25

// heliosEntries returns MaxHeliosEntries's bound for d, saturating at
// MaxUint64.
func heliosEntries(d *matrix.Matrix, slot int64) uint64 {
	total := d.Total()
	slots := uint64(d.NonZeros()) + uint64(total/slot)
	if total%slot != 0 {
		slots++
	}
	n := uint64(d.N())
	if slots > math.MaxUint64/n {
		return math.MaxUint64
	}
	return n * slots
}

// HybridPacketSlowdown is the packet-network slowdown the hybrid algorithm
// assumes: the 10:1 oversubscription of the paper's cluster.
const HybridPacketSlowdown = 10

// DefaultElecFrac is the electrical bandwidth fraction the hybrid-fluid
// scheduler uses when the request leaves ElecFrac at 0: a tenth of a
// circuit lane, the reciprocal of the classical hybrid algorithm's
// HybridPacketSlowdown, so the two models describe the same fabric.
const DefaultElecFrac = 0.1

// entry is one registry row: the algorithm's name, description and
// capabilities, and the function that schedules a validated request.
type entry struct {
	name, desc string
	caps       algo.Capabilities
	run        func(ctx context.Context, req algo.Request) (*algo.Result, error)
}

func (e entry) Name() string            { return e.name }
func (e entry) Describe() string        { return e.desc }
func (e entry) Caps() algo.Capabilities { return e.caps }
func (e entry) Schedule(ctx context.Context, req algo.Request) (*algo.Result, error) {
	return e.run(ctx, req)
}

var (
	single = algo.Capabilities{SingleCoflow: true, FlowLevel: true}
	multi  = algo.Capabilities{SingleCoflow: true, MultiCoflow: true, FlowLevel: true}
)

func init() {
	for _, e := range []entry{
		{algo.NameRecoSin, "Reco-Sin (Algorithm 1) per coflow: regularize, stuff, max-min BvN; coflows back-to-back", single,
			perCoflow(algo.NameRecoSin, 0, nil, func(ctx context.Context, d *matrix.Matrix, req algo.Request) (ocs.CircuitSchedule, error) {
				return core.RecoSinCtx(ctx, d, req.Delta)
			})},
		{algo.NameSolstice, "Solstice per coflow: stuff + max-min BvN without regularization; coflows back-to-back", single,
			perCoflow(algo.NameSolstice, 0, nil, solsticeBuild)},
		{algo.NameSEBFSolstice, "smallest-effective-bottleneck-first coflow order, Solstice schedule per coflow", multi,
			perCoflow(algo.NameSEBFSolstice, 0, ordering.SEBF, solsticeBuild)},
		{algo.NameTMSBvN, "Traffic Matrix Scheduling: stuff + first-fit BvN per coflow; coflows back-to-back", single,
			perCoflow(algo.NameTMSBvN, 0, nil, func(ctx context.Context, d *matrix.Matrix, req algo.Request) (ocs.CircuitSchedule, error) {
				return tms.ScheduleBvN(ctx, d)
			})},
		// The slot length is a multiple of delta, so delta must be positive
		// and the slot representable.
		{algo.NameHelios, fmt.Sprintf("Helios/c-Through slotted max-weight matching (slot = %d*delta) per coflow", HeliosSlotFactor), single,
			perCoflow(algo.NameHelios, 1, nil, func(ctx context.Context, d *matrix.Matrix, req algo.Request) (ocs.CircuitSchedule, error) {
				if req.Delta > math.MaxInt64/HeliosSlotFactor {
					return nil, fmt.Errorf("%w: helios slot %d*delta overflows int64 ticks at delta %d", algo.ErrBadRequest, HeliosSlotFactor, req.Delta)
				}
				slot := HeliosSlotFactor * req.Delta
				if bound := heliosEntries(d, slot); bound > MaxHeliosEntries {
					return nil, fmt.Errorf("%w: helios may emit %d port entries at slot %d, over its limit of %d", algo.ErrBadRequest, bound, slot, MaxHeliosEntries)
				}
				return tms.ScheduleHelios(ctx, d, slot)
			})},
		// Throughput per cost divides by dur + delta, so delta must be positive.
		{algo.NameEclipse, "Eclipse-style greedy throughput-per-cost circuit schedule per coflow", single,
			perCoflow(algo.NameEclipse, 1, nil, func(ctx context.Context, d *matrix.Matrix, req algo.Request) (ocs.CircuitSchedule, error) {
				return eclipse.Schedule(ctx, d, req.Delta)
			})},
		// reco-sparse caps the BvN decomposition at Request.K max–min terms
		// (default core.DefaultSparseK) and covers the residual with
		// full-drain cleanup matchings: far fewer reconfigurations than the
		// full decomposition at a bounded CCT cost (results/frontier.csv). The
		// term bound replaces Reco's δ-regularization as the sparsification
		// mechanism, so the k = nnz limit is exactly Solstice.
		{algo.NameRecoSparse, fmt.Sprintf("sparsity-bounded BvN: stuff, k-term max-min BvN (default k=%d) plus full-drain residual cleanup; coflows back-to-back", core.DefaultSparseK),
			algo.Capabilities{SingleCoflow: true, FlowLevel: true, Sparse: true},
			perCoflow(algo.NameRecoSparse, 0, nil, func(ctx context.Context, d *matrix.Matrix, req algo.Request) (ocs.CircuitSchedule, error) {
				return core.RecoSparseCtx(ctx, d, req.Delta, req.K)
			})},
		{algo.NameRecoMul, "full Reco-Mul pipeline: primal-dual order, packet list schedule, Algorithm 2 transformation", multi,
			func(ctx context.Context, req algo.Request) (*algo.Result, error) {
				res, err := core.ScheduleMulCtx(ctx, req.Demands, req.Weights, req.Delta, req.C)
				if err != nil {
					return nil, err
				}
				return &algo.Result{CCTs: res.CCTs, Reconfigs: res.Reconfigs, Flows: res.Flows}, nil
			}},
		{algo.NameLPIIGB, "LP-II-GB baseline: interval-indexed LP estimate order, first-fit BvN per coflow", multi,
			lpii(lpiigb.ScheduleSequentialCtx)},
		{algo.NameLPIIGBGroup, "grouped LP-II-GB: coflows sharing an LP interval merged into one aggregate BvN schedule", multi,
			lpii(lpiigb.ScheduleCtx)},
		// The K-core O(K)-approximation pipeline: Request.Cores picks the
		// fabric width; 0 and 1 degenerate to the single switch, where the
		// result is SEBF-ordered Reco-Sin. The merged Flows legitimately carry
		// up to K concurrent flows per port at K > 1 (one transceiver per
		// core), so single-switch flow validation applies only to K = 1.
		{algo.NameKCore, "O(K)-approximation K-core scheduler: SEBF coflow order, greedy demand split across Request.Cores switching cores, Reco-Sin per core share",
			algo.Capabilities{SingleCoflow: true, MultiCoflow: true, FlowLevel: true, Cores: true},
			func(ctx context.Context, req algo.Request) (*algo.Result, error) {
				topo, err := kcore.Uniform(max(req.Cores, 1), req.Delta)
				if err != nil {
					return nil, err
				}
				batch, err := kcore.ScheduleBatch(ctx, req.Demands, topo, kcore.Greedy, !req.NoFlows)
				if err != nil {
					return nil, err
				}
				return &algo.Result{
					CCTs:      batch.Seq.CCTs,
					Reconfigs: batch.Seq.Reconfigs,
					Flows:     batch.Seq.Flows,
				}, nil
			}},
		{algo.NameSunflow, "Sunflow: one circuit per flow, longest-first, not-all-stop model; coflows back-to-back",
			algo.Capabilities{SingleCoflow: true, NotAllStop: true, FlowLevel: true},
			backToBack(func(ctx context.Context, d *matrix.Matrix, req algo.Request) (int64, int, schedule.FlowSchedule, error) {
				r, err := sunflow.Schedule(ctx, d, req.Delta)
				if err != nil {
					return 0, 0, nil, err
				}
				return r.CCT, r.Establishments, r.Flows, nil
			})},
		// The elephant threshold is the paper's c·δ; the packet half runs
		// HybridPacketSlowdown times slower than a circuit.
		{algo.NameHybrid, fmt.Sprintf("hybrid switch: elephants (>= c*delta) via Reco-Sin on the OCS, mice via a %dx-slower packet network", HybridPacketSlowdown),
			algo.Capabilities{SingleCoflow: true},
			backToBack(func(ctx context.Context, d *matrix.Matrix, req algo.Request) (int64, int, schedule.FlowSchedule, error) {
				r, err := hybrid.Schedule(ctx, d, hybrid.Config{
					Delta:          req.Delta,
					Threshold:      req.C * req.Delta,
					PacketSlowdown: HybridPacketSlowdown,
				})
				if err != nil {
					return 0, 0, nil, err
				}
				return r.CCT, r.OCSReconfigs, nil, nil
			})},
		// hybrid-fluid is the rate-based hybrid circuit/packet scheduler
		// (docs/HYBRID.md): a balance sweep picks the elephant cutoff jointly
		// minimizing the two fabrics' estimated finish times, then both
		// fabrics run on one clock with the electrical side spending idle
		// capacity on optical residuals. The model is fluid, so no flow-level
		// schedule is exposed.
		{algo.NameHybridFluid, fmt.Sprintf("rate-based hybrid switch: balance-swept cutoff, joint electrical/optical fluid service (default electrical fraction %v)", DefaultElecFrac),
			algo.Capabilities{SingleCoflow: true, Hybrid: true},
			backToBack(func(ctx context.Context, d *matrix.Matrix, req algo.Request) (int64, int, schedule.FlowSchedule, error) {
				frac := req.ElecFrac
				if frac == 0 {
					frac = DefaultElecFrac
				}
				r, err := hybrid.ScheduleFluid(ctx, d, hybrid.FluidConfig{
					Delta:    req.Delta,
					ElecFrac: frac,
					Policy:   hybrid.PolicyBalance,
				})
				if err != nil {
					return 0, 0, nil, err
				}
				return r.CCT, r.OCSReconfigs, nil, nil
			})},
	} {
		algo.Register(e)
	}
}

func solsticeBuild(ctx context.Context, d *matrix.Matrix, req algo.Request) (ocs.CircuitSchedule, error) {
	return solstice.Schedule(ctx, d)
}

// perCoflow builds a row's run from a single-coflow circuit scheduler: one
// circuit schedule per coflow, executed back-to-back on the all-stop switch
// — identity order unless an ordering function is set. This reproduces
// recosim's historical handling of reco-sin, solstice and sebf-solstice
// exactly. A request whose delta is below minDelta is a bad request, not a
// build failure. A request that sets NoFlows gets no flow list.
func perCoflow(name string, minDelta int64, order func(ds []*matrix.Matrix) []int,
	build func(ctx context.Context, d *matrix.Matrix, req algo.Request) (ocs.CircuitSchedule, error),
) func(context.Context, algo.Request) (*algo.Result, error) {
	return func(ctx context.Context, req algo.Request) (*algo.Result, error) {
		if req.Delta < minDelta {
			return nil, fmt.Errorf("%w: %s needs delta at least %d, got %d", algo.ErrBadRequest, name, minDelta, req.Delta)
		}
		schedules := make([]ocs.CircuitSchedule, len(req.Demands))
		for k, d := range req.Demands {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			cs, err := build(ctx, d, req)
			if err != nil {
				return nil, fmt.Errorf("coflow %d: %w", k, err)
			}
			schedules[k] = cs
		}
		perm := identity(len(req.Demands))
		if order != nil {
			perm = order(req.Demands)
		}
		seq, err := ocs.ExecSequential(req.Demands, schedules, perm, req.Delta, !req.NoFlows)
		if err != nil {
			return nil, err
		}
		return &algo.Result{
			CCTs:      seq.CCTs,
			Reconfigs: seq.Reconfigs,
			Flows:     seq.Flows,
			Schedules: schedules,
		}, nil
	}
}

// backToBack builds a row's run from a scheduler that serves one coflow and
// reports its CCT, reconfigurations and flows from time zero: ocs.Sequence
// runs the coflows back-to-back in input order, each one's flows shifted to
// its start. The context is checked before each coflow and handed to step,
// for schedulers that also check it within one.
func backToBack(step func(ctx context.Context, d *matrix.Matrix, req algo.Request) (int64, int, schedule.FlowSchedule, error)) func(context.Context, algo.Request) (*algo.Result, error) {
	return func(ctx context.Context, req algo.Request) (*algo.Result, error) {
		seq, err := ocs.Sequence(len(req.Demands), identity(len(req.Demands)), func(int) int { return 0 },
			func(k int, _ schedule.FlowSchedule) (ocs.Result, error) {
				if err := ctx.Err(); err != nil {
					return ocs.Result{}, err
				}
				cct, reconfigs, flows, err := step(ctx, req.Demands[k], req)
				return ocs.Result{CCT: cct, Reconfigs: reconfigs, Flows: flows}, err
			})
		if err != nil {
			return nil, err
		}
		return &algo.Result{CCTs: seq.CCTs, Reconfigs: seq.Reconfigs, Flows: seq.Flows}, nil
	}
}

// lpii builds a row's run from one of the LP-II-GB constructions. A request
// that sets NoFlows gets no flow list.
func lpii(lp func(context.Context, []*matrix.Matrix, []float64, int64, bool) (*lpiigb.Result, error)) func(context.Context, algo.Request) (*algo.Result, error) {
	return func(ctx context.Context, req algo.Request) (*algo.Result, error) {
		res, err := lp(ctx, req.Demands, req.Weights, req.Delta, !req.NoFlows)
		if err != nil {
			return nil, err
		}
		return &algo.Result{CCTs: res.CCTs, Reconfigs: res.Reconfigs, Flows: res.Flows}, nil
	}
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
