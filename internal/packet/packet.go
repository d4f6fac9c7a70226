// Package packet models the electrical packet switch that Reco-Mul's input
// schedules come from: a non-preemptive flow-level scheduler in which each
// ingress and egress port carries at most one flow at a time and a flow,
// once started, runs to completion (the ALG_p contract of Sec. IV-A).
package packet

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"reco/internal/matrix"
	"reco/internal/schedule"
)

// ListSchedule produces a non-preemptive packet-switch schedule S_p from a
// coflow priority order: coflows are visited in order and each of their
// flows greedily claims the earliest instant at which both of its ports are
// free.
//
// Within a coflow, flows are placed in wave order: duration-sorted maximal
// matchings, so that each round starts a set of conflict-free flows with
// similar durations. This is how matching-based coflow schedulers drain a
// shuffle in practice, and it is the structure Reco-Mul's start-time
// regularization exploits — flows of one wave land on the same grid instant
// and share a single circuit reconfiguration (Fig. 3 of the paper).
//
// The returned schedule satisfies every demand exactly (no stuffing) and
// honors the port constraint; both are machine-checked by the caller-visible
// invariants in the schedule package.
func ListSchedule(ds []*matrix.Matrix, order []int) (schedule.FlowSchedule, error) {
	if len(ds) == 0 {
		return nil, fmt.Errorf("packet: no coflows")
	}
	n := ds[0].N()
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
	flows, most := 0, 0
	for _, k := range order {
		if d := ds[k].N(); d != n {
			return nil, fmt.Errorf("packet: coflow %d has dimension %d, want %d", k, d, n)
		}
		nz := ds[k].NonZeros()
		flows += nz
		most = max(most, nz)
	}

	freeIn := make([]int64, n)
	freeOut := make([]int64, n)
	var out schedule.FlowSchedule
	if flows > 0 {
		out = make(schedule.FlowSchedule, 0, flows)
	}
	w := newWaves(n, most)
	for _, k := range order {
		for _, f := range w.order(ds[k]) {
			start := max(freeIn[f.i], freeOut[f.j])
			end := start + f.d
			freeIn[f.i] = end
			freeOut[f.j] = end
			out = append(out, schedule.FlowInterval{
				Start: start, End: end, In: int(f.i), Out: int(f.j), Coflow: k,
			})
		}
	}
	return out, nil
}

// flowKey is one flow of a coflow: its duration and ports.
type flowKey struct {
	d    int64
	i, j int32
}

// waves computes the wave order of the coflows of one fabric, one after
// another, in scratch sized once for the largest.
type waves struct {
	n, words     int // ports; 64-bit words per port's round bitset
	keys, sorted []flowKey
	round        []int32
	count        []int    // flows per round, then each round's first slot
	used         []uint64 // round bitsets: ingress i at i·words, egress j at (n+j)·words
}

// newWaves returns scratch for coflows on n ports with at most most flows
// each. Greedy needs at most 2n−1 rounds (see order).
func newWaves(n, most int) *waves {
	rounds := 2*n - 1
	words := (rounds + 63) / 64
	return &waves{
		n: n, words: words,
		keys:   make([]flowKey, 0, most),
		sorted: make([]flowKey, most),
		round:  make([]int32, most),
		count:  make([]int, rounds+1),
		used:   make([]uint64, 2*n*words),
	}
}

// order returns d's flows in wave order: rounds of maximal matchings, each
// taking at most one flow per ingress and per egress port and scanning the
// longest remaining flows first, concatenated. Round r of that scan is the
// colour greedy edge colouring gives a flow when it visits the flows in
// duration order and hands each the lowest round neither of its ports has
// used yet: a flow is passed over in round r exactly when an earlier flow
// of round r shares a port with it. A port carries at most n flows, so a
// flow sees at most 2n−2 used rounds and greedy needs at most 2n−1; a
// counting sort by round, stable in duration order, then concatenates the
// rounds. The result aliases w's scratch until the next call.
func (w *waves) order(d *matrix.Matrix) []flowKey {
	n, words := w.n, w.words
	w.keys = w.keys[:0]
	for idx, v := range d.Cells() {
		if v > 0 {
			w.keys = append(w.keys, flowKey{d: v, i: int32(idx / n), j: int32(idx % n)})
		}
	}
	// More flows than NonZeros reported means a SetSummary summary broke its
	// contract; size the scratch to the matrix rather than index past it.
	if f := len(w.keys); f > len(w.sorted) {
		w.sorted, w.round = make([]flowKey, f), make([]int32, f)
	}
	// Longest first, ties by (i, j).
	slices.SortFunc(w.keys, func(x, y flowKey) int {
		if x.d != y.d {
			return cmp.Compare(y.d, x.d)
		}
		if x.i != y.i {
			return int(x.i - y.i)
		}
		return int(x.j - y.j)
	})

	clear(w.used)
	clear(w.count)
	round := w.round[:len(w.keys)]
	for f, k := range w.keys {
		in := w.used[int(k.i)*words:][:words]
		eg := w.used[(n+int(k.j))*words:][:words]
		for x := range in {
			if free := ^(in[x] | eg[x]); free != 0 {
				r := bits.TrailingZeros64(free)
				in[x] |= 1 << r
				eg[x] |= 1 << r
				round[f] = int32(64*x + r)
				w.count[64*x+r+1]++
				break
			}
		}
	}
	for r := 1; r < len(w.count); r++ {
		w.count[r] += w.count[r-1]
	}
	sorted := w.sorted[:len(w.keys)]
	for f, k := range w.keys {
		sorted[w.count[round[f]]] = k
		w.count[round[f]]++
	}
	return sorted
}
