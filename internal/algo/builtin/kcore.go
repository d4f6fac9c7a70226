package builtin

import (
	"context"

	"reco/internal/algo"
	"reco/internal/kcore"
)

func init() {
	algo.Register(kcoreScheduler{})
}

// kcoreScheduler adapts the K-core O(K)-approximation pipeline
// (internal/kcore) to the registry contract. Request.Cores picks the fabric
// width; 0 and 1 degenerate to the single switch, where the result is
// SEBF-ordered Reco-Sin. The merged Flows legitimately carry up to K
// concurrent flows per port at K > 1 (one transceiver per core), so
// single-switch flow validation applies only to the K = 1 case.
type kcoreScheduler struct{}

func (kcoreScheduler) Name() string { return algo.NameKCore }

func (kcoreScheduler) Describe() string {
	return "O(K)-approximation K-core scheduler: SEBF coflow order, greedy demand split across Request.Cores switching cores, Reco-Sin per core share"
}

func (kcoreScheduler) Caps() algo.Capabilities {
	return algo.Capabilities{SingleCoflow: true, MultiCoflow: true, FlowLevel: true, Cores: true}
}

func (kcoreScheduler) Schedule(ctx context.Context, req algo.Request) (*algo.Result, error) {
	k := req.Cores
	if k < 1 {
		k = 1
	}
	topo, err := kcore.Uniform(k, req.Delta)
	if err != nil {
		return nil, err
	}
	batch, err := kcore.ScheduleBatch(ctx, req.Demands, topo, kcore.Greedy)
	if err != nil {
		return nil, err
	}
	return &algo.Result{
		CCTs:      batch.Seq.CCTs,
		Reconfigs: batch.Seq.Reconfigs,
		Flows:     batch.Seq.Flows,
	}, nil
}
