package kcore

import (
	"sort"

	"reco/internal/matrix"
)

// emptySplit returns K all-zero matrices of d's dimension.
func emptySplit(n, k int) []*matrix.Matrix {
	out := make([]*matrix.Matrix, k)
	for c := range out {
		out[c], _ = matrix.New(n)
	}
	return out
}

// SplitGreedy partitions d's entries across t's cores, assigning each entry
// wholly to one core. Entries are placed largest first (LPT-style), each
// onto the core that minimizes the resulting completion estimate at the
// entry's ports:
//
//	max(rowLoad, colLoad)/bandwidth + δ·max(rowCircuits, colCircuits)
//
// i.e. the per-core analogue of the ρ + τ·δ lower bound, so the split
// balances transmission time and establishment count together rather than
// raw bytes alone. Ties break on the lowest core index, making the split a
// pure function of its inputs. The returned matrices sum exactly to d. This
// is the demand-splitting step of the O(K)-approximation scheduler
// (docs/TOPOLOGY.md).
func SplitGreedy(d *matrix.Matrix, t Topology) ([]*matrix.Matrix, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	n, k := d.N(), t.K()
	out := emptySplit(n, k)
	if k == 1 {
		out[0] = d.Clone()
		return out, nil
	}
	entries := d.AppendNonZeros(nil)
	// Largest first; ties in row-major order for determinism.
	sort.SliceStable(entries, func(a, b int) bool { return entries[a].V > entries[b].V })
	rowLoad := make([][]int64, k)
	colLoad := make([][]int64, k)
	rowCnt := make([][]int64, k)
	colCnt := make([][]int64, k)
	for c := 0; c < k; c++ {
		rowLoad[c] = make([]int64, n)
		colLoad[c] = make([]int64, n)
		rowCnt[c] = make([]int64, n)
		colCnt[c] = make([]int64, n)
	}
	for _, e := range entries {
		best, bestCost := 0, float64(0)
		for c := 0; c < k; c++ {
			load := rowLoad[c][e.I] + e.V
			if cl := colLoad[c][e.J] + e.V; cl > load {
				load = cl
			}
			circuits := rowCnt[c][e.I] + 1
			if cc := colCnt[c][e.J] + 1; cc > circuits {
				circuits = cc
			}
			cost := float64(load)/float64(t.Cores[c].Bandwidth) +
				float64(t.Cores[c].Delta)*float64(circuits)
			if c == 0 || cost < bestCost {
				best, bestCost = c, cost
			}
		}
		out[best].Add(e.I, e.J, e.V)
		rowLoad[best][e.I] += e.V
		colLoad[best][e.J] += e.V
		rowCnt[best][e.I]++
		colCnt[best][e.J]++
	}
	return out, nil
}

// SplitRoundRobin is the naive splitting baseline: d's non-zero entries in
// row-major order are dealt to cores cyclically, ignoring entry sizes, port
// loads and per-core bandwidth. The returned matrices sum exactly to d.
func SplitRoundRobin(d *matrix.Matrix, t Topology) ([]*matrix.Matrix, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	n, k := d.N(), t.K()
	out := emptySplit(n, k)
	if k == 1 {
		out[0] = d.Clone()
		return out, nil
	}
	for idx, e := range d.AppendNonZeros(nil) {
		out[idx%k].Add(e.I, e.J, e.V)
	}
	return out, nil
}
