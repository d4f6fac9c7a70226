package packet

import (
	"cmp"
	"math"
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
// complete bipartite with equal and with distinct durations, durations
// drawn from so few values that most comparisons tie, and durations within
// a few ticks of math.MaxInt64. Each shape also runs once at n = 300, where
// port indices need a second byte.
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
		one  bool // a single coflow: its durations leave no room for another
	}{
		{"random", func(n int) *matrix.Matrix {
			p := rng.Float64()
			return fill(n, func(int, int) bool { return rng.Float64() < p }, func() int64 { return 1 + rng.Int63n(1000) })
		}, false},
		{"few-durations", func(n int) *matrix.Matrix {
			return fill(n, func(int, int) bool { return rng.Intn(2) == 0 }, func() int64 { return 1 + rng.Int63n(3) })
		}, false},
		{"one-row", func(n int) *matrix.Matrix {
			r := rng.Intn(n)
			return fill(n, func(i, _ int) bool { return i == r }, func() int64 { return 1 + rng.Int63n(50) })
		}, false},
		{"one-column", func(n int) *matrix.Matrix {
			c := rng.Intn(n)
			return fill(n, func(_, j int) bool { return j == c }, func() int64 { return 1 + rng.Int63n(50) })
		}, false},
		{"one-cell", func(n int) *matrix.Matrix {
			r, c := rng.Intn(n), rng.Intn(n)
			return fill(n, func(i, j int) bool { return i == r && j == c }, func() int64 { return 7 })
		}, false},
		{"bipartite-equal", func(n int) *matrix.Matrix {
			return fill(n, func(int, int) bool { return true }, func() int64 { return 100 })
		}, false},
		{"bipartite-distinct", func(n int) *matrix.Matrix {
			return fill(n, func(int, int) bool { return true }, func() int64 { return 1 + rng.Int63n(1<<40) })
		}, false},
		// Durations near the top of int64, mostly tied: order falls to the
		// (i, j) tie-break.
		{"huge-durations", func(n int) *matrix.Matrix {
			return fill(n, func(int, int) bool { return rng.Intn(4) == 0 }, func() int64 { return (1 + rng.Int63n(3)) << 56 })
		}, false},
		// At most one flow per port, each within 3 of math.MaxInt64, so that
		// no port's clock wraps: the keys differ in their lowest byte only.
		{"near-MaxInt64", func(n int) *matrix.Matrix {
			perm := rng.Perm(n)
			return fill(n, func(i, j int) bool { return perm[i] == j && rng.Intn(4) != 0 }, func() int64 { return math.MaxInt64 - rng.Int63n(4) })
		}, true},
	}
	for _, sh := range shapes {
		for trial := 0; trial < 12; trial++ {
			n := 1 + rng.Intn(40)
			kk := 1 + rng.Intn(4)
			switch trial {
			case 0:
				n = 70 // more than 64 rounds: a second word of round bits
			case 1:
				n, kk = 300, 1 // ports past one byte; one coflow keeps the reference quick
			}
			if sh.one {
				kk = 1
			}
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
