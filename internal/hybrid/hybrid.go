// Package hybrid models the hybrid circuit/packet datacenter network that
// motivates the paper's elephant-only assumption (Sec. VI): demand below a
// threshold ("mice") is carried by an always-on packet switch at a fraction
// of the optical rate, while demand at or above it ("elephants") is carried
// by the OCS. Helios, c-Through and Solstice all operate this split; the
// paper's assumption d ≥ c·δ is the statement that the threshold has been
// set to c·δ.
//
// Split never partitions in place: it returns two freshly allocated
// matrices and leaves the input demand untouched, so callers can split the
// same coflow at several thresholds (the balance sweep does exactly that).
//
// Two service models share the split. Schedule is the classical static
// hybrid: each half runs to completion on its own fabric (Reco-Sin on the
// OCS, a slowed-down packet list schedule) with no interaction.
// ScheduleFluid is the rate-based model (docs/HYBRID.md): both fabrics run
// on one clock as fabric.Circuit + fabric.Electrical, and joint policies
// let the electrical fabric spend idle capacity on optical residuals.
//
// Schedule stays beside ScheduleFluid because no fluid policy reproduces
// it: its packet side is non-preemptive, list-scheduling whole mice each
// PacketSlowdown (an integer) times longer, where even PolicyStatic drains
// the electrical share fluidly at a per-mille rate. That model is what the
// hybrid registry entry runs and what hybrid.csv's static column reports.
package hybrid

import (
	"errors"
	"fmt"
	"math"

	"reco/internal/core"
	"reco/internal/matrix"
	"reco/internal/ocs"
	"reco/internal/packet"
)

// ErrBadConfig reports unusable hybrid parameters.
var ErrBadConfig = errors.New("hybrid: invalid configuration")

// Config parameterizes the hybrid network.
type Config struct {
	// Delta is the OCS reconfiguration delay in ticks.
	Delta int64
	// Threshold is the elephant cutoff: entries ≥ Threshold take the OCS.
	// The paper's choice is c·Delta.
	Threshold int64
	// PacketSlowdown is how many times slower the packet network is than a
	// circuit (the 10:1 oversubscription of the paper's cluster suggests
	// 10). Transmitting t ticks of demand takes t·PacketSlowdown on the
	// packet side.
	PacketSlowdown int64
}

// Result reports a hybrid run of a single coflow.
type Result struct {
	// CCT is the coflow completion time: both halves run concurrently, so
	// it is the maximum of the two.
	CCT int64
	// OCSCCT and PacketCCT are the completion times of the two halves.
	OCSCCT, PacketCCT int64
	// OCSReconfigs counts the circuit reconfigurations of the OCS half.
	OCSReconfigs int
	// OCSDemand and PacketDemand are the tick totals routed to each half.
	OCSDemand, PacketDemand int64
}

// Split partitions d at the threshold into two new matrices, leaving d
// unmodified: the first return carries entries ≥ threshold (elephants, for
// the OCS), the second the rest (mice, for the packet switch). At
// threshold 0 nothing is a mouse — every positive entry is an elephant —
// so the OCS carries the whole coflow.
func Split(d *matrix.Matrix, threshold int64) (elephants, mice *matrix.Matrix) {
	n := d.N()
	elephants = d.Clone()
	mice, _ = matrix.New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := d.At(i, j)
			if v > 0 && v < threshold {
				elephants.Set(i, j, 0)
				mice.Set(i, j, v)
			}
		}
	}
	return elephants, mice
}

// Schedule runs one coflow through the hybrid network: elephants via
// Reco-Sin on the all-stop OCS, mice via a non-preemptive packet-switch
// schedule at the slowed-down rate, both in parallel.
func Schedule(d *matrix.Matrix, cfg Config) (*Result, error) {
	if cfg.Delta < 0 || cfg.Threshold < 0 || cfg.PacketSlowdown < 1 {
		return nil, fmt.Errorf("%w: %+v", ErrBadConfig, cfg)
	}
	elephants, mice := Split(d, cfg.Threshold)
	res := &Result{OCSDemand: elephants.Total(), PacketDemand: mice.Total()}

	if !elephants.IsZero() {
		cs, err := core.RecoSin(elephants, cfg.Delta)
		if err != nil {
			return nil, fmt.Errorf("hybrid: %w", err)
		}
		exec, err := ocs.ExecAllStop(elephants, cs, cfg.Delta)
		if err != nil {
			return nil, fmt.Errorf("hybrid: %w", err)
		}
		res.OCSCCT = exec.CCT
		res.OCSReconfigs = exec.Reconfigs
	}

	if !mice.IsZero() {
		// A non-preemptive list schedule ends within twice the bottleneck,
		// so the slowed bottleneck at most doubled must fit in int64 ticks.
		if rho := mice.MaxRowColSum(); rho > math.MaxInt64/2/cfg.PacketSlowdown {
			return nil, fmt.Errorf("%w: mice bottleneck %d slowed %dx overflows int64 ticks", ErrBadConfig, rho, cfg.PacketSlowdown)
		}
		slowed := mice.Clone()
		n := slowed.N()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				slowed.Set(i, j, slowed.At(i, j)*cfg.PacketSlowdown)
			}
		}
		sp, err := packet.ListSchedule([]*matrix.Matrix{slowed}, []int{0})
		if err != nil {
			return nil, fmt.Errorf("hybrid: %w", err)
		}
		res.PacketCCT = sp.Makespan()
	}

	res.CCT = res.OCSCCT
	if res.PacketCCT > res.CCT {
		res.CCT = res.PacketCCT
	}
	return res, nil
}
