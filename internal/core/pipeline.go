package core

import (
	"context"
	"fmt"

	"reco/internal/matrix"
	"reco/internal/obs"
	"reco/internal/ordering"
	"reco/internal/packet"
	"reco/internal/schedule"
)

// MulPipelineResult reports a full Reco-Mul pipeline run, including the
// per-coflow completion times under the all-stop OCS model.
type MulPipelineResult struct {
	// Flows is the feasible OCS schedule S_o.
	Flows schedule.FlowSchedule
	// CCTs[k] is the completion time of coflow k.
	CCTs []int64
	// Reconfigs and ConfTime account the all-stop reconfigurations.
	Reconfigs int
	ConfTime  int64
	// PacketCCTs[k] is coflow k's completion time in the intermediate
	// packet-switch schedule S_p, exposed for analysis and tests.
	PacketCCTs []int64
}

// ScheduleMulCtx runs the complete Reco-Mul pipeline of Sec. IV: the
// primal–dual weighted-completion-time permutation (the combinatorial
// equivalent of the Shafiee–Ghaderi ALG_p), a non-preemptive packet-switch
// list schedule, and the Algorithm 2 transformation into a feasible all-stop
// OCS schedule with reconfiguration delay delta and transmission threshold c.
// A nil w means unit weights.
//
// ctx is polled between pipeline stages and by the list schedule before
// each coflow, so a cancelled request aborts within one coflow's placement
// rather than running the pipeline to completion.
func ScheduleMulCtx(ctx context.Context, ds []*matrix.Matrix, w []float64, delta, c int64) (*MulPipelineResult, error) {
	if len(ds) == 0 {
		return nil, fmt.Errorf("%w: no coflows", ErrBadParam)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	snk := obs.Current()
	end := snk.Stage("ordering")
	order, err := ordering.PrimalDual(ds, w)
	end()
	if err != nil {
		return nil, fmt.Errorf("core: reco-mul ordering: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// S_p lives only as long as this call: it is built in pooled storage
	// and transformed there.
	scr := getMulScratch()
	defer mulPool.Put(scr)
	end = snk.Stage("packet_schedule")
	sp, err := packet.AppendListSchedule(ctx, scr.sp[:0], ds, order)
	scr.sp = sp
	end()
	if err != nil {
		return nil, fmt.Errorf("core: reco-mul packet schedule: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	end = snk.Stage("reco_mul_transform")
	mul, err := scr.recoMul(sp, ds[0].N(), delta, c)
	end()
	if err != nil {
		return nil, err
	}
	snk.Inc("reco_mul_batches_total")
	snk.Count("reco_mul_reconfigs_total", int64(mul.Reconfigs))
	return &MulPipelineResult{
		Flows:      mul.Flows,
		CCTs:       mul.Flows.CCTs(len(ds)),
		Reconfigs:  mul.Reconfigs,
		ConfTime:   mul.ConfTime,
		PacketCCTs: sp.CCTs(len(ds)),
	}, nil
}
