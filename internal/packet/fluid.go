package packet

import (
	"fmt"

	"reco/internal/fabric"
	"reco/internal/matrix"
)

// FluidCCTs computes per-coflow completion times under the idealized
// sequential-fluid packet-switch model: coflows are served one at a time in
// the given order, and within a coflow every flow shares port bandwidth
// fractionally so the whole coflow drains in exactly its bottleneck time ρ
// (Varys' MADD allocation achieves this). This is the reference an ideal
// electrical switch running SEBF attains: no reconfiguration cost, no
// integrality, no intra-coflow serialization. It does not bound concurrent
// schedulers per coflow — they may backfill disjoint coflows past the
// sequential prefix — but the first coflow's ρ is a universal lower bound.
//
// Because the model is fluid there is no flow-level schedule to return,
// only completion times. The capacity model is fabric.Electrical at the
// full unit rate (num = den = 1): each coflow's service time is the
// fabric's DrainTime, its bottleneck ρ.
func FluidCCTs(ds []*matrix.Matrix, order []int) ([]int64, error) {
	if len(ds) == 0 {
		return nil, fmt.Errorf("packet: no coflows")
	}
	if len(order) != len(ds) {
		return nil, fmt.Errorf("packet: order has %d entries, want %d", len(order), len(ds))
	}
	seen := make([]bool, len(ds))
	for _, k := range order {
		if k < 0 || k >= len(ds) || seen[k] {
			return nil, fmt.Errorf("packet: order is not a permutation of coflows")
		}
		seen[k] = true
	}
	n := ds[0].N()
	el, err := fabric.NewElectrical(1, 1)
	if err != nil {
		return nil, fmt.Errorf("packet: %w", err)
	}
	ccts := make([]int64, len(ds))
	var now int64
	for _, k := range order {
		if ds[k].N() != n {
			return nil, fmt.Errorf("packet: coflow %d has dimension %d, want %d", k, ds[k].N(), n)
		}
		now += el.DrainTime(ds[k])
		ccts[k] = now
	}
	return ccts, nil
}
