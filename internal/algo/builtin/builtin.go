// Package builtin registers every scheduling algorithm in the repository
// with the internal/algo registry. Consumers blank-import it:
//
//	import _ "reco/internal/algo/builtin"
//
// and resolve algorithms with algo.Get. Each registration adapts one
// scheduling package to the unified algo.Scheduler contract without changing
// its numerical behavior: the six algorithms recosim historically dispatched
// by string switch produce byte-identical schedules and CCTs through the
// registry (proven by this package's differential tests), and the
// previously experiment-only baselines (Sunflow, TMS, Helios, Eclipse,
// hybrid, the online policies) become reachable from the CLI and the HTTP
// API through the same door.
package builtin

import (
	"context"
	"fmt"

	"reco/internal/algo"
	"reco/internal/core"
	"reco/internal/eclipse"
	"reco/internal/hybrid"
	"reco/internal/lpiigb"
	"reco/internal/matrix"
	"reco/internal/ocs"
	"reco/internal/online"
	"reco/internal/ordering"
	"reco/internal/solstice"
	"reco/internal/sunflow"
	"reco/internal/tms"
)

// HeliosSlotFactor is the repository's Helios slot convention: the slotted
// scheduler holds each max-weight matching for HeliosSlotFactor·δ ticks
// (the ext-single experiment's historical choice).
const HeliosSlotFactor = 4

// HybridPacketSlowdown is the packet-network slowdown the hybrid algorithm
// assumes: the 10:1 oversubscription of the paper's cluster.
const HybridPacketSlowdown = 10

func init() {
	algo.Register(&perCoflow{
		name: algo.NameRecoSin,
		desc: "Reco-Sin (Algorithm 1) per coflow: regularize, stuff, max-min BvN; coflows back-to-back",
		caps: algo.Capabilities{SingleCoflow: true, FlowLevel: true},
		build: func(ctx context.Context, d *matrix.Matrix, req algo.Request) (ocs.CircuitSchedule, error) {
			return core.RecoSinCtx(ctx, d, req.Delta)
		},
	})
	algo.Register(&perCoflow{
		name: algo.NameSolstice,
		desc: "Solstice per coflow: stuff + max-min BvN without regularization; coflows back-to-back",
		caps: algo.Capabilities{SingleCoflow: true, FlowLevel: true},
		build: func(ctx context.Context, d *matrix.Matrix, req algo.Request) (ocs.CircuitSchedule, error) {
			return solstice.Schedule(d)
		},
	})
	algo.Register(&perCoflow{
		name: algo.NameSEBFSolstice,
		desc: "smallest-effective-bottleneck-first coflow order, Solstice schedule per coflow",
		caps: algo.Capabilities{SingleCoflow: true, MultiCoflow: true, FlowLevel: true},
		build: func(ctx context.Context, d *matrix.Matrix, req algo.Request) (ocs.CircuitSchedule, error) {
			return solstice.Schedule(d)
		},
		order: ordering.SEBF,
	})
	algo.Register(&perCoflow{
		name: algo.NameTMSBvN,
		desc: "Traffic Matrix Scheduling: stuff + first-fit BvN per coflow; coflows back-to-back",
		caps: algo.Capabilities{SingleCoflow: true, FlowLevel: true},
		build: func(ctx context.Context, d *matrix.Matrix, req algo.Request) (ocs.CircuitSchedule, error) {
			return tms.ScheduleBvN(d)
		},
	})
	algo.Register(&perCoflow{
		name: algo.NameHelios,
		desc: fmt.Sprintf("Helios/c-Through slotted max-weight matching (slot = %d*delta) per coflow", HeliosSlotFactor),
		caps: algo.Capabilities{SingleCoflow: true, FlowLevel: true},
		build: func(ctx context.Context, d *matrix.Matrix, req algo.Request) (ocs.CircuitSchedule, error) {
			return tms.ScheduleHelios(ctx, d, HeliosSlotFactor*req.Delta)
		},
		minDelta: 1, // the slot length is a multiple of delta
	})
	algo.Register(&perCoflow{
		name: algo.NameEclipse,
		desc: "Eclipse-style greedy throughput-per-cost circuit schedule per coflow",
		caps: algo.Capabilities{SingleCoflow: true, FlowLevel: true},
		build: func(ctx context.Context, d *matrix.Matrix, req algo.Request) (ocs.CircuitSchedule, error) {
			return eclipse.Schedule(d, req.Delta)
		},
		minDelta: 1, // throughput per cost divides by dur + delta
	})
	algo.Register(recoMul{})
	algo.Register(lpiiSequential{})
	algo.Register(lpiiGrouped{})
	algo.Register(sunflowSched{})
	algo.Register(hybridSched{})
	algo.Register(onlineSched{name: algo.NameOnlineFIFO, pol: online.FIFO{},
		desc: "online controller, FIFO admission: pending coflows one at a time via Reco-Sin"})
	algo.Register(onlineSched{name: algo.NameOnlineSEBF, pol: online.SEBF{},
		desc: "online controller, SEBF admission: smallest bottleneck first via Reco-Sin"})
	algo.Register(onlineSched{name: algo.NameOnlineBatch, pol: online.Batch{},
		desc: "online controller, batch admission: all pending coflows through Reco-Mul"})
	algo.Register(onlineSched{name: algo.NameOnlineDisjoint, pol: online.DisjointBatch{},
		desc: "online controller, disjoint-batch admission: port-disjoint coflows co-scheduled via Reco-Mul"})
}

// perCoflow adapts a single-coflow circuit scheduler to the Scheduler
// contract: one circuit schedule per coflow, executed back-to-back on the
// all-stop switch — identity order unless an ordering function is set.
// This reproduces recosim's historical handling of reco-sin, solstice and
// sebf-solstice exactly. A request whose delta is below minDelta is a bad
// request, not a build failure.
type perCoflow struct {
	name, desc string
	caps       algo.Capabilities
	build      func(ctx context.Context, d *matrix.Matrix, req algo.Request) (ocs.CircuitSchedule, error)
	order      func(ds []*matrix.Matrix) []int
	minDelta   int64
}

func (p *perCoflow) Name() string            { return p.name }
func (p *perCoflow) Describe() string        { return p.desc }
func (p *perCoflow) Caps() algo.Capabilities { return p.caps }

func (p *perCoflow) Schedule(ctx context.Context, req algo.Request) (*algo.Result, error) {
	if req.Delta < p.minDelta {
		return nil, fmt.Errorf("%w: %s needs delta at least %d, got %d", algo.ErrBadRequest, p.name, p.minDelta, req.Delta)
	}
	schedules := make([]ocs.CircuitSchedule, len(req.Demands))
	for k, d := range req.Demands {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cs, err := p.build(ctx, d, req)
		if err != nil {
			return nil, fmt.Errorf("coflow %d: %w", k, err)
		}
		schedules[k] = cs
	}
	order := identity(len(req.Demands))
	if p.order != nil {
		order = p.order(req.Demands)
	}
	seq, err := ocs.ExecSequential(req.Demands, schedules, order, req.Delta)
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

// recoMul runs the full Reco-Mul pipeline.
type recoMul struct{}

func (recoMul) Name() string { return algo.NameRecoMul }
func (recoMul) Describe() string {
	return "full Reco-Mul pipeline: primal-dual order, packet list schedule, Algorithm 2 transformation"
}
func (recoMul) Caps() algo.Capabilities {
	return algo.Capabilities{SingleCoflow: true, MultiCoflow: true, FlowLevel: true}
}

func (recoMul) Schedule(ctx context.Context, req algo.Request) (*algo.Result, error) {
	res, err := core.ScheduleMulCtx(ctx, req.Demands, req.Weights, req.Delta, req.C)
	if err != nil {
		return nil, err
	}
	return &algo.Result{CCTs: res.CCTs, Reconfigs: res.Reconfigs, Flows: res.Flows}, nil
}

// lpiiSequential is the sequential LP-II-GB baseline.
type lpiiSequential struct{}

func (lpiiSequential) Name() string { return algo.NameLPIIGB }
func (lpiiSequential) Describe() string {
	return "LP-II-GB baseline: interval-indexed LP estimate order, first-fit BvN per coflow"
}
func (lpiiSequential) Caps() algo.Capabilities {
	return algo.Capabilities{SingleCoflow: true, MultiCoflow: true, FlowLevel: true}
}

func (lpiiSequential) Schedule(ctx context.Context, req algo.Request) (*algo.Result, error) {
	res, err := lpiigb.ScheduleSequentialCtx(ctx, req.Demands, req.Weights, req.Delta)
	if err != nil {
		return nil, err
	}
	return &algo.Result{CCTs: res.CCTs, Reconfigs: res.Reconfigs, Flows: res.Flows}, nil
}

// lpiiGrouped is the grouped LP-II-GB construction.
type lpiiGrouped struct{}

func (lpiiGrouped) Name() string { return algo.NameLPIIGBGroup }
func (lpiiGrouped) Describe() string {
	return "grouped LP-II-GB: coflows sharing an LP interval merged into one aggregate BvN schedule"
}
func (lpiiGrouped) Caps() algo.Capabilities {
	return algo.Capabilities{SingleCoflow: true, MultiCoflow: true, FlowLevel: true}
}

func (lpiiGrouped) Schedule(ctx context.Context, req algo.Request) (*algo.Result, error) {
	res, err := lpiigb.ScheduleCtx(ctx, req.Demands, req.Weights, req.Delta)
	if err != nil {
		return nil, err
	}
	return &algo.Result{CCTs: res.CCTs, Reconfigs: res.Reconfigs, Flows: res.Flows}, nil
}

// sunflowSched runs Sunflow's one-circuit-per-flow scheduler per coflow in
// the not-all-stop model, coflows back-to-back.
type sunflowSched struct{}

func (sunflowSched) Name() string { return algo.NameSunflow }
func (sunflowSched) Describe() string {
	return "Sunflow: one circuit per flow, longest-first, not-all-stop model; coflows back-to-back"
}
func (sunflowSched) Caps() algo.Capabilities {
	return algo.Capabilities{SingleCoflow: true, NotAllStop: true, FlowLevel: true}
}

func (sunflowSched) Schedule(ctx context.Context, req algo.Request) (*algo.Result, error) {
	out := &algo.Result{CCTs: make([]int64, len(req.Demands))}
	var now int64
	for k, d := range req.Demands {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := sunflow.Schedule(d, req.Delta)
		if err != nil {
			return nil, fmt.Errorf("coflow %d: %w", k, err)
		}
		for _, f := range r.Flows {
			f.Start += now
			f.End += now
			f.Coflow = k
			out.Flows = append(out.Flows, f)
		}
		now += r.CCT
		out.CCTs[k] = now
		out.Reconfigs += r.Establishments
	}
	return out, nil
}

// hybridSched runs the hybrid circuit/packet split per coflow, coflows
// back-to-back. The elephant threshold is the paper's c·δ; the packet half
// runs HybridPacketSlowdown times slower than a circuit.
type hybridSched struct{}

func (hybridSched) Name() string { return algo.NameHybrid }
func (hybridSched) Describe() string {
	return fmt.Sprintf("hybrid switch: elephants (>= c*delta) via Reco-Sin on the OCS, mice via a %dx-slower packet network", HybridPacketSlowdown)
}
func (hybridSched) Caps() algo.Capabilities {
	return algo.Capabilities{SingleCoflow: true}
}

func (hybridSched) Schedule(ctx context.Context, req algo.Request) (*algo.Result, error) {
	out := &algo.Result{CCTs: make([]int64, len(req.Demands))}
	var now int64
	for k, d := range req.Demands {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := hybrid.Schedule(d, hybrid.Config{
			Delta:          req.Delta,
			Threshold:      req.C * req.Delta,
			PacketSlowdown: HybridPacketSlowdown,
		})
		if err != nil {
			return nil, fmt.Errorf("coflow %d: %w", k, err)
		}
		now += r.CCT
		out.CCTs[k] = now
		out.Reconfigs += r.OCSReconfigs
	}
	return out, nil
}

// onlineSched replays the batch through the online event-driven controller
// with every coflow arriving at time zero, under one admission policy. It
// reports per-coflow CCTs and reconfiguration totals; the controller does
// not expose flow-level intervals.
type onlineSched struct {
	name, desc string
	pol        online.Policy
}

func (o onlineSched) Name() string     { return o.name }
func (o onlineSched) Describe() string { return o.desc }
func (o onlineSched) Caps() algo.Capabilities {
	return algo.Capabilities{SingleCoflow: true, MultiCoflow: true}
}

func (o onlineSched) Schedule(ctx context.Context, req algo.Request) (*algo.Result, error) {
	arrivals := make([]online.Arrival, len(req.Demands))
	for k, d := range req.Demands {
		w := 1.0
		if k < len(req.Weights) {
			w = req.Weights[k]
		}
		arrivals[k] = online.Arrival{Demand: d, At: 0, Weight: w}
	}
	res, err := online.Simulate(arrivals, o.pol, req.Delta, req.C)
	if err != nil {
		return nil, err
	}
	return &algo.Result{CCTs: res.CCTs, Reconfigs: res.Reconfigs}, nil
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
