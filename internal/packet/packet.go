// Package packet models the electrical packet switch that Reco-Mul's input
// schedules come from: a non-preemptive flow-level scheduler in which each
// ingress and egress port carries at most one flow at a time and a flow,
// once started, runs to completion (the ALG_p contract of Sec. IV-A).
package packet

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"reco/internal/matrix"
	"reco/internal/radix"
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
	return AppendListSchedule(context.Background(), nil, ds, order)
}

// AppendListSchedule is ListSchedule appending S_p to dst, for a caller
// that brings its own storage; on error it returns dst unchanged. It checks
// ctx before each coflow it places and returns ctx.Err() once it is
// cancelled.
func AppendListSchedule(ctx context.Context, dst schedule.FlowSchedule, ds []*matrix.Matrix, order []int) (schedule.FlowSchedule, error) {
	if len(ds) == 0 {
		return dst, fmt.Errorf("packet: no coflows")
	}
	n := ds[0].N()
	if len(order) != len(ds) {
		return dst, fmt.Errorf("packet: order has %d entries, want %d", len(order), len(ds))
	}
	seen := make([]bool, len(ds))
	for _, k := range order {
		if k < 0 || k >= len(ds) || seen[k] {
			return dst, fmt.Errorf("packet: order is not a permutation of coflows")
		}
		seen[k] = true
	}
	flows, most := 0, 0
	for _, k := range order {
		if d := ds[k].N(); d != n {
			return dst, fmt.Errorf("packet: coflow %d has dimension %d, want %d", k, d, n)
		}
		nz := ds[k].NonZeros()
		flows += nz
		most = max(most, nz)
	}

	out := slices.Grow(dst, flows)
	w := getWaves(n, most)
	defer wavePool.Put(w)
	freeIn, freeOut := w.free[:n], w.free[n:]
	for _, k := range order {
		if err := ctx.Err(); err != nil {
			return dst, err
		}
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
// another, in scratch sized once for the largest. It also holds the list
// schedule's port clocks, so that one call's scratch is one pooled value.
type waves struct {
	n, words     int // ports; 64-bit words per port's round bitset
	keys, sorted []flowKey
	round        []int32
	count        []int    // flows per round, then each round's first slot
	used         []uint64 // round bitsets: ingress i at i·words, egress j at (n+j)·words
	free         []int64  // when each ingress, then each egress port frees up
}

// wavePool recycles waves scratch across calls.
var wavePool sync.Pool

// getWaves returns zeroed port clocks and scratch for coflows on n ports
// with at most most flows each, from the pool when it holds some. Greedy
// needs at most 2n−1 rounds (see order).
func getWaves(n, most int) *waves {
	w, _ := wavePool.Get().(*waves)
	if w == nil {
		w = new(waves)
	}
	rounds := 2*n - 1
	w.n, w.words = n, (rounds+63)/64
	w.keys = slices.Grow(w.keys[:0], most)
	w.sorted = resize(w.sorted, most)
	w.round = resize(w.round, most)
	w.count = resize(w.count, rounds+1)
	w.used = resize(w.used, 2*n*w.words)
	w.free = resize(w.free, 2*n)
	clear(w.free)
	return w
}

// resize returns s with length n, reusing its storage when it has room;
// the contents are unspecified.
func resize[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
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
	// Longest first, ties by (i, j): the keys were collected in (i, j)
	// order and the sort is stable.
	radix.Sort(w.keys, func(k flowKey) uint64 { return radix.Desc(k.d) })

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
