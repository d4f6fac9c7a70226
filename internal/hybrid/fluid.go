package hybrid

import (
	"fmt"
	"sort"

	"reco/internal/core"
	"reco/internal/fabric"
	"reco/internal/matrix"
	"reco/internal/ocs"
)

// Policy selects how the fluid model assigns demand between the two
// fabrics and whether the electrical fabric may help optical residuals.
type Policy int

const (
	// PolicyStatic is the fluid analogue of the legacy Split: demand below
	// the threshold is pinned electrical, the rest optical, and the
	// electrical fabric idles once its own share drains. It exists as the
	// baseline the joint policies are measured against.
	PolicyStatic Policy = iota
	// PolicyThreshold pins demand by the same threshold but serves jointly:
	// whenever the electrical fabric has capacity left in a window — during
	// reconfiguration stalls and after its own share drains — it spends it
	// on the optical residual, shortening later circuit windows.
	PolicyThreshold
	// PolicyBalance chooses the threshold itself: it sweeps every candidate
	// cutoff and keeps the one minimizing the larger of the two fabrics'
	// estimated finish times (the OCS lower bound ρ+τδ vs the electrical
	// drain time), then serves jointly like PolicyThreshold.
	PolicyBalance
)

// String renders the policy for tables and logs.
func (p Policy) String() string {
	switch p {
	case PolicyStatic:
		return "static"
	case PolicyThreshold:
		return "threshold"
	case PolicyBalance:
		return "balance"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// FluidConfig parameterizes the rate-based hybrid model.
type FluidConfig struct {
	// Delta is the OCS reconfiguration delay in ticks.
	Delta int64
	// Threshold is the elephant cutoff for PolicyStatic and
	// PolicyThreshold; PolicyBalance ignores it and picks its own.
	Threshold int64
	// ElecFrac is the electrical fabric's per-port bandwidth as a fraction
	// of one circuit lane, in [0, 1]. It is quantized to a per-mille
	// rational (fabric.Permille) so the whole run stays in exact integer
	// arithmetic. At 0 the electrical fabric is dark and every entry is
	// routed optical regardless of policy.
	ElecFrac float64
	// Policy selects the assignment and service discipline.
	Policy Policy
}

// FluidResult reports a fluid hybrid run of a single coflow.
type FluidResult struct {
	// CCT is when the last demand on either fabric drained.
	CCT int64
	// OCSCCT and ElecCCT are the per-fabric finish times (0 for a fabric
	// that carried nothing).
	OCSCCT, ElecCCT int64
	// OCSReconfigs counts circuit reconfigurations performed.
	OCSReconfigs int
	// OCSDemand and ElecDemand are the tick totals initially assigned to
	// each fabric.
	OCSDemand, ElecDemand int64
	// ElecHelped is the optically-assigned demand the electrical fabric
	// drained on the OCS's behalf (0 under PolicyStatic).
	ElecHelped int64
	// Threshold is the effective cutoff used (PolicyBalance reports the one
	// it chose).
	Threshold int64
}

// ScheduleFluid runs one coflow through the rate-based hybrid network: the
// scheduler assigns every (src, dst) demand an optical circuit share (via
// Reco-Sin on the optical partition) and a time-varying electrical rate —
// the electrical fabric serves its own partition fluidly and, under the
// joint policies, spends leftover window capacity on the optical residual.
// Both fabrics run on one clock; the CCT is when both are drained.
//
// With ElecFrac = 0 every entry is optical and the run degenerates to
// exactly core.RecoSin + ocs.ExecAllStop on the whole demand — the legacy
// Schedule at threshold 0 — which the differential tests lock.
func ScheduleFluid(d *matrix.Matrix, cfg FluidConfig) (*FluidResult, error) {
	// The fraction's test is written so that NaN, which fails every
	// ordering, is rejected: fabric.Permille would clamp it to a dark fabric.
	if cfg.Delta < 0 || cfg.Threshold < 0 || !(0 <= cfg.ElecFrac && cfg.ElecFrac <= 1) {
		return nil, fmt.Errorf("%w: %+v", ErrBadConfig, cfg)
	}
	if cfg.Policy < PolicyStatic || cfg.Policy > PolicyBalance {
		return nil, fmt.Errorf("%w: unknown policy %d", ErrBadConfig, cfg.Policy)
	}
	n := d.N()
	num, den := fabric.Permille(cfg.ElecFrac)
	elec, err := fabric.NewElectrical(n, num, den)
	if err != nil {
		return nil, fmt.Errorf("hybrid: %w", err)
	}
	// Every electrical time below is ⌈ρ'·den/num⌉ for some ρ' ≤ ρ. Bounding
	// ρ·den by 2^62, the most fabric.Electrical.DrainTime reports, keeps all
	// of them and the balance sweep's products exact in int64.
	if rho := d.MaxRowColSum(); num > 0 && rho > (1<<62)/den {
		return nil, fmt.Errorf("%w: bottleneck %d at electrical rate %d/%d overflows int64 ticks", ErrBadConfig, rho, num, den)
	}

	// Assignment: partition d into the optical and electrical shares.
	threshold := cfg.Threshold
	if cfg.Policy == PolicyBalance && num > 0 {
		threshold = balanceThreshold(d, cfg.Delta, num, den)
	}
	var remO, remE *matrix.Matrix
	if num == 0 {
		remO = d.Clone() // dark electrical fabric: everything takes the OCS
		remE, _ = matrix.New(n)
		threshold = 0
	} else {
		remO, remE = Split(d, threshold)
	}
	res := &FluidResult{
		OCSDemand: remO.Total(), ElecDemand: remE.Total(), Threshold: threshold,
	}

	// elecNow is the frontier up to which electrical service has been
	// applied; elecServe advances it to t, draining the electrical share
	// first and then (joint policies) helping the optical residual.
	var elecNow int64
	elecServe := func(t int64) {
		if num == 0 || t <= elecNow {
			return
		}
		w := t - elecNow
		elecNow = t
		if !remE.IsZero() {
			need := elec.DrainTime(remE)
			if need > w {
				elec.Drain(remE, w)
				return
			}
			elec.Drain(remE, need)
			res.ElecCCT = elecNow - (w - need)
			w -= need
		}
		if w == 0 || cfg.Policy == PolicyStatic || remO.IsZero() {
			return
		}
		res.ElecHelped += elec.Drain(remO, w)
	}

	// Optical side: Reco-Sin over the optical share, executed on a circuit
	// fabric with the electrical fabric running concurrently. This is the
	// one δ-then-drain walk that is not ocs.Core.Run: the electrical fabric
	// mutates the optical residual between the δ window and the drain, and
	// a hook in the shared loop for this single caller would not be simpler.
	var now int64
	if !remO.IsZero() {
		cs, err := core.RecoSin(remO, cfg.Delta)
		if err != nil {
			return nil, fmt.Errorf("hybrid: %w", err)
		}
		circ := fabric.NewCircuit(n, 1)
		for _, a := range cs {
			circ.Establish(a.Perm)
			maxRem := circ.MaxRemaining(remO)
			if maxRem == 0 {
				continue // drained (possibly by electrical help): no reconfig
			}
			// The switch commits to the reconfiguration before the δ window;
			// the electrical fabric keeps serving through it and may shrink
			// (even empty) this establishment's share meanwhile.
			now += cfg.Delta
			res.OCSReconfigs++
			elecServe(now)
			maxRem = circ.MaxRemaining(remO)
			if maxRem == 0 {
				continue
			}
			active := a.Dur
			if maxRem < active {
				active = maxRem
			}
			end := now + active
			circ.Transmit(remO, now, end, nil)
			elecServe(end)
			now = end
			if remO.IsZero() {
				break
			}
		}
		if !remO.IsZero() {
			return nil, fmt.Errorf("hybrid: %w: %d ticks left", ocs.ErrIncomplete, remO.Total())
		}
	}
	res.OCSCCT = now

	// Electrical tail: whatever of the electrical share outlives the
	// optical schedule drains at the fabric's own rate.
	if !remE.IsZero() {
		need := elec.DrainTime(remE)
		elec.Drain(remE, need)
		elecNow += need
		res.ElecCCT = elecNow
	}

	res.CCT = res.OCSCCT
	if res.ElecCCT > res.CCT {
		res.CCT = res.ElecCCT
	}
	return res, nil
}

// balanceThreshold sweeps every candidate elephant cutoff and returns the
// one minimizing max(estimated OCS time, electrical drain time) for the
// induced partition: the OCS estimate is the paper's lower bound ρ + τ·δ
// on the optical share, the electrical estimate ⌈ρ·den/num⌉ on the rest.
// Ties keep the smallest cutoff (prefer the optical fabric). The sweep
// moves entries ascending, maintaining both sides' port sums
// incrementally, so it costs O(V·n + n²) for V distinct values.
func balanceThreshold(d *matrix.Matrix, delta, num, den int64) int64 {
	n := d.N()
	cells := d.AppendNonZeros(nil)
	sort.Slice(cells, func(a, b int) bool {
		if cells[a].V != cells[b].V {
			return cells[a].V < cells[b].V
		}
		if cells[a].I != cells[b].I {
			return cells[a].I < cells[b].I
		}
		return cells[a].J < cells[b].J
	})
	rowO, colO := d.RowSums(), d.ColSums()
	rowNnzO := make([]int64, n)
	colNnzO := make([]int64, n)
	for _, c := range cells {
		rowNnzO[c.I]++
		colNnzO[c.J]++
	}
	rowE := make([]int64, n)
	colE := make([]int64, n)

	score := func() int64 {
		var rhoO, tauO, rhoE int64
		for p := 0; p < n; p++ {
			if rowO[p] > rhoO {
				rhoO = rowO[p]
			}
			if colO[p] > rhoO {
				rhoO = colO[p]
			}
			if rowNnzO[p] > tauO {
				tauO = rowNnzO[p]
			}
			if colNnzO[p] > tauO {
				tauO = colNnzO[p]
			}
			if rowE[p] > rhoE {
				rhoE = rowE[p]
			}
			if colE[p] > rhoE {
				rhoE = colE[p]
			}
		}
		tO := rhoO + tauO*delta
		tE := fabric.CeilDiv(rhoE*den, num)
		if tE > tO {
			return tE
		}
		return tO
	}

	best, bestScore := int64(0), score() // cutoff 0: everything optical
	for k := 0; k < len(cells); {
		v := cells[k].V
		for ; k < len(cells) && cells[k].V == v; k++ {
			c := cells[k]
			rowO[c.I] -= c.V
			colO[c.J] -= c.V
			rowNnzO[c.I]--
			colNnzO[c.J]--
			rowE[c.I] += c.V
			colE[c.J] += c.V
		}
		if s := score(); s < bestScore {
			best, bestScore = v+1, s
		}
	}
	return best
}
