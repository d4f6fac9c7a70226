// Package topology models the switching fabric that schedulers and
// executors run against: K parallel optical circuit switching cores sharing
// one set of N ports. Every node owns one transceiver per core, so at any
// instant a port can carry up to K simultaneous circuits — one on each core
// — while each individual core remains an N×N non-blocking crossbar with
// its own circuit bandwidth and reconfiguration delay δ.
//
// K = 1 is the degenerate case and reproduces the single-switch model of
// the Reco paper exactly; larger K is the setting of the K-core coflow
// scheduling papers (Wang, Shen, Tian et al., PAPERS.md), where a scheduler
// must decide both how to split port demand across cores and how to
// schedule each core's share (internal/kcore does both). See
// docs/TOPOLOGY.md.
package topology

import (
	"errors"
	"fmt"

	"reco/internal/fabric"
	"reco/internal/matrix"
)

// ErrBadTopology reports an unusable fabric description.
var ErrBadTopology = errors.New("topology: invalid topology")

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

// Topology is a K-core OCS fabric: N ports shared by len(Cores) parallel
// crossbars. The zero value is invalid; build topologies with Single,
// Uniform or a literal followed by Validate.
type Topology struct {
	// Ports is the number of ingress (= egress) ports, N.
	Ports int
	// Cores lists the switching cores; len(Cores) is K.
	Cores []Core
}

// Single returns the degenerate one-core fabric of the source paper: N
// ports, one crossbar at unit bandwidth with reconfiguration delay delta.
func Single(ports int, delta int64) Topology {
	return Topology{Ports: ports, Cores: []Core{{Bandwidth: 1, Delta: delta}}}
}

// Uniform returns a K-core fabric of identical unit-bandwidth cores, each
// with reconfiguration delay delta.
func Uniform(ports, k int, delta int64) (Topology, error) {
	if k < 1 {
		return Topology{}, fmt.Errorf("%w: %d cores", ErrBadTopology, k)
	}
	cores := make([]Core, k)
	for i := range cores {
		cores[i] = Core{Bandwidth: 1, Delta: delta}
	}
	t := Topology{Ports: ports, Cores: cores}
	if err := t.Validate(); err != nil {
		return Topology{}, err
	}
	return t, nil
}

// K returns the number of cores.
func (t Topology) K() int { return len(t.Cores) }

// Validate checks the fabric: at least one port and one core, positive
// bandwidths, non-negative reconfiguration delays.
func (t Topology) Validate() error {
	if t.Ports <= 0 {
		return fmt.Errorf("%w: %d ports", ErrBadTopology, t.Ports)
	}
	if len(t.Cores) == 0 {
		return fmt.Errorf("%w: no cores", ErrBadTopology)
	}
	for c, core := range t.Cores {
		if core.Bandwidth <= 0 {
			return fmt.Errorf("%w: core %d bandwidth %d", ErrBadTopology, c, core.Bandwidth)
		}
		if core.Delta < 0 {
			return fmt.Errorf("%w: core %d negative delta %d", ErrBadTopology, c, core.Delta)
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
