package builtin

import (
	"context"
	"fmt"

	"reco/internal/algo"
	"reco/internal/hybrid"
)

// DefaultElecFrac is the electrical bandwidth fraction the hybrid-fluid
// scheduler uses when the request leaves ElecFrac at 0: a tenth of a
// circuit lane, the reciprocal of the classical hybrid algorithm's
// HybridPacketSlowdown, so the two models describe the same fabric.
const DefaultElecFrac = 0.1

func init() {
	// hybrid-fluid is the rate-based hybrid circuit/packet scheduler
	// (docs/HYBRID.md): a balance sweep picks the elephant cutoff jointly
	// minimizing the two fabrics' estimated finish times, then both fabrics
	// run on one clock with the electrical side spending idle capacity on
	// optical residuals. The model is fluid, so no flow-level schedule is
	// exposed.
	algo.Register(hybridFluidSched{})
}

type hybridFluidSched struct{}

func (hybridFluidSched) Name() string { return algo.NameHybridFluid }
func (hybridFluidSched) Describe() string {
	return fmt.Sprintf("rate-based hybrid switch: balance-swept cutoff, joint electrical/optical fluid service (default electrical fraction %v)", DefaultElecFrac)
}
func (hybridFluidSched) Caps() algo.Capabilities {
	return algo.Capabilities{SingleCoflow: true, Hybrid: true}
}

func (hybridFluidSched) Schedule(ctx context.Context, req algo.Request) (*algo.Result, error) {
	frac := req.ElecFrac
	if frac == 0 {
		frac = DefaultElecFrac
	}
	out := &algo.Result{CCTs: make([]int64, len(req.Demands))}
	var now int64
	for k, d := range req.Demands {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := hybrid.ScheduleFluid(d, hybrid.FluidConfig{
			Delta:    req.Delta,
			ElecFrac: frac,
			Policy:   hybrid.PolicyBalance,
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
