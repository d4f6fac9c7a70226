package kcore

import (
	"errors"
	"fmt"

	"reco/internal/fabric"
	"reco/internal/matrix"
)

// ErrTopology reports an unusable fabric description.
var ErrTopology = errors.New("kcore: invalid topology")

// Core is one switching core of the fabric.
type Core struct {
	// Bandwidth is the core's circuit bandwidth in demand units per tick.
	// The single-core model transmits one unit per tick, so 1 is the
	// baseline; a core with Bandwidth b drains demand b times faster.
	Bandwidth int64
	// Delta is the core's reconfiguration delay in ticks (the all-stop δ of
	// the paper, charged per establishment on this core).
	Delta int64
}

// Topology is a K-core OCS fabric: len(Cores) parallel N×N crossbars
// sharing one set of ports, every port owning one transceiver per core. N
// is the dimension of the demand the fabric serves. The zero value is
// invalid; build topologies with Uniform or a literal followed by Validate.
// Uniform(1, δ) is the single switch of the source paper.
type Topology struct {
	// Cores lists the switching cores; len(Cores) is K.
	Cores []Core
}

// Uniform returns a K-core fabric of identical unit-bandwidth cores, each
// with reconfiguration delay delta.
func Uniform(k int, delta int64) (Topology, error) {
	if k < 1 {
		return Topology{}, fmt.Errorf("%w: %d cores", ErrTopology, k)
	}
	cores := make([]Core, k)
	for i := range cores {
		cores[i] = Core{Bandwidth: 1, Delta: delta}
	}
	t := Topology{Cores: cores}
	if err := t.Validate(); err != nil {
		return Topology{}, err
	}
	return t, nil
}

// K returns the number of cores.
func (t Topology) K() int { return len(t.Cores) }

// Validate checks the fabric: at least one core, positive bandwidths,
// non-negative reconfiguration delays.
func (t Topology) Validate() error {
	if len(t.Cores) == 0 {
		return fmt.Errorf("%w: no cores", ErrTopology)
	}
	for c, core := range t.Cores {
		if core.Bandwidth <= 0 {
			return fmt.Errorf("%w: core %d bandwidth %d", ErrTopology, c, core.Bandwidth)
		}
		if core.Delta < 0 {
			return fmt.Errorf("%w: core %d negative delta %d", ErrTopology, c, core.Delta)
		}
	}
	return nil
}

// TotalBandwidth returns the aggregate circuit bandwidth across all cores —
// the most demand one port can move per tick with every transceiver busy.
func (t Topology) TotalBandwidth() int64 {
	var sum int64
	for _, c := range t.Cores {
		sum += c.Bandwidth
	}
	return sum
}

// MinDelta returns the smallest per-core reconfiguration delay.
func (t Topology) MinDelta() int64 {
	min := t.Cores[0].Delta
	for _, c := range t.Cores[1:] {
		if c.Delta < min {
			min = c.Delta
		}
	}
	return min
}

// LowerBound returns the K-core single-coflow CCT lower bound, the
// generalization of the paper's T_lb = ρ + τ·δ: the bottleneck port load ρ
// served at the fabric's aggregate bandwidth, plus the reconfiguration
// floor. With τ non-zero entries on the bottleneck port spread over K
// cores, some core on that port performs at least ⌈τ/K⌉ establishments and
// pays the cheapest per-core δ for each.
func LowerBound(d *matrix.Matrix, t Topology) int64 {
	rho := d.MaxRowColSum()
	tau := int64(d.MaxRowColNonZeros())
	b := t.TotalBandwidth()
	k := int64(t.K())
	return fabric.CeilDiv(rho, b) + fabric.CeilDiv(tau, k)*t.MinDelta()
}
