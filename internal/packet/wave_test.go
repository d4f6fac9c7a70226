package packet

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"reco/internal/matrix"
	"reco/internal/schedule"
)

// refFlow is one flow of the reference list schedule below.
type refFlow struct {
	i, j int
	d    int64
}

// refWaveOrder is wave order as first written: rescan the duration-sorted
// flows once per round, each round taking at most one flow per ingress and
// per egress port, and concatenate the rounds. O(rounds·F); kept as the
// reference ListSchedule's wave order is checked against.
func refWaveOrder(flows []refFlow, n int) []refFlow {
	out := make([]refFlow, 0, len(flows))
	taken := make([]bool, len(flows))
	remaining := len(flows)
	inUsed := make([]int, n)
	outUsed := make([]int, n)
	round := 1
	for remaining > 0 {
		for idx, f := range flows {
			if taken[idx] || inUsed[f.i] == round || outUsed[f.j] == round {
				continue
			}
			taken[idx] = true
			remaining--
			inUsed[f.i] = round
			outUsed[f.j] = round
			out = append(out, f)
		}
		round++
	}
	return out
}

// refListSchedule is ListSchedule over refWaveOrder, without validation.
func refListSchedule(ds []*matrix.Matrix, order []int) schedule.FlowSchedule {
	n := ds[0].N()
	freeIn := make([]int64, n)
	freeOut := make([]int64, n)
	var out schedule.FlowSchedule
	for _, k := range order {
		var flows []refFlow
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if v := ds[k].At(i, j); v > 0 {
					flows = append(flows, refFlow{i, j, v})
				}
			}
		}
		slices.SortFunc(flows, func(a, b refFlow) int {
			if a.d != b.d {
				return cmp.Compare(b.d, a.d)
			}
			if a.i != b.i {
				return a.i - b.i
			}
			return a.j - b.j
		})
		for _, f := range refWaveOrder(flows, n) {
			start := max(freeIn[f.i], freeOut[f.j])
			freeIn[f.i], freeOut[f.j] = start+f.d, start+f.d
			out = append(out, schedule.FlowInterval{Start: start, End: start + f.d, In: f.i, Out: f.j, Coflow: k})
		}
	}
	return out
}

// TestWaveOrderMatchesReference checks ListSchedule, flow by flow and in
// output order, against the quadratic reference on random coflows and on
// the adversarial shapes: single-port (one row, one column, one cell),
// complete bipartite with equal and with distinct durations, and durations
// drawn from so few values that most comparisons tie.
func TestWaveOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	fill := func(n int, keep func(i, j int) bool, dur func() int64) *matrix.Matrix {
		m, _ := matrix.New(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if keep(i, j) {
					m.Set(i, j, dur())
				}
			}
		}
		return m
	}
	shapes := []struct {
		name string
		make func(n int) *matrix.Matrix
	}{
		{"random", func(n int) *matrix.Matrix {
			p := rng.Float64()
			return fill(n, func(int, int) bool { return rng.Float64() < p }, func() int64 { return 1 + rng.Int63n(1000) })
		}},
		{"few-durations", func(n int) *matrix.Matrix {
			return fill(n, func(int, int) bool { return rng.Intn(2) == 0 }, func() int64 { return 1 + rng.Int63n(3) })
		}},
		{"one-row", func(n int) *matrix.Matrix {
			r := rng.Intn(n)
			return fill(n, func(i, _ int) bool { return i == r }, func() int64 { return 1 + rng.Int63n(50) })
		}},
		{"one-column", func(n int) *matrix.Matrix {
			c := rng.Intn(n)
			return fill(n, func(_, j int) bool { return j == c }, func() int64 { return 1 + rng.Int63n(50) })
		}},
		{"one-cell", func(n int) *matrix.Matrix {
			r, c := rng.Intn(n), rng.Intn(n)
			return fill(n, func(i, j int) bool { return i == r && j == c }, func() int64 { return 7 })
		}},
		{"bipartite-equal", func(n int) *matrix.Matrix {
			return fill(n, func(int, int) bool { return true }, func() int64 { return 100 })
		}},
		{"bipartite-distinct", func(n int) *matrix.Matrix {
			return fill(n, func(int, int) bool { return true }, func() int64 { return 1 + rng.Int63n(1<<40) })
		}},
		// Durations near the top of int64, mostly tied: order falls to the
		// (i, j) tie-break.
		{"huge-durations", func(n int) *matrix.Matrix {
			return fill(n, func(int, int) bool { return rng.Intn(4) == 0 }, func() int64 { return (1 + rng.Int63n(3)) << 56 })
		}},
	}
	for _, sh := range shapes {
		for trial := 0; trial < 12; trial++ {
			n := 1 + rng.Intn(40)
			if trial == 0 {
				n = 70 // more than 64 rounds: a second word of round bits
			}
			kk := 1 + rng.Intn(4)
			ds := make([]*matrix.Matrix, kk)
			for k := range ds {
				ds[k] = sh.make(n)
			}
			order := rng.Perm(kk)
			got, err := ListSchedule(ds, order)
			if err != nil {
				t.Fatalf("%s %d: %v", sh.name, trial, err)
			}
			want := refListSchedule(ds, order)
			if !slices.Equal(got, want) {
				t.Fatalf("%s %d (n=%d, %d coflows): ListSchedule diverges from the reference wave order", sh.name, trial, n, kk)
			}
		}
	}
}
