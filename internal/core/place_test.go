package core

import (
	"cmp"
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"reco/internal/matrix"
	"reco/internal/ordering"
	"reco/internal/packet"
	"reco/internal/schedule"
)

// refPlace is place as first written, with comparison sorts: order by
// (start, in, out, idx), snap and push in that order, then re-sort stably
// by start if anything was pushed. It is kept as the reference the radix
// passes are checked against, without place's validation.
func refPlace(sp schedule.FlowSchedule, n int, snap func(int64) int64) ([]pseudoFlow, bool) {
	fs := make([]pseudoFlow, len(sp))
	for idx, f := range sp {
		fs[idx] = pseudoFlow{start: f.Start, in: f.In, out: f.Out, idx: idx}
	}
	slices.SortFunc(fs, func(a, b pseudoFlow) int {
		if a.start != b.start {
			return cmp.Compare(a.start, b.start)
		}
		if a.in != b.in {
			return a.in - b.in
		}
		if a.out != b.out {
			return a.out - b.out
		}
		return a.idx - b.idx
	})
	freeIn := make([]int64, n)
	freeOut := make([]int64, n)
	pushed := false
	for k := range fs {
		f := &fs[k]
		snapped := snap(f.start)
		f.start = max(snapped, freeIn[f.in], freeOut[f.out])
		pushed = pushed || f.start != snapped
		end := f.start + sp[f.idx].Duration()
		freeIn[f.in] = end
		freeOut[f.out] = end
	}
	if pushed {
		slices.SortStableFunc(fs, func(a, b pseudoFlow) int { return cmp.Compare(a.start, b.start) })
	}
	return fs, pushed
}

// TestPlaceMatchesComparatorSort checks place, flow by flow, against
// refPlace on random packet schedules: overlapping intervals that get
// pushed, zero-length intervals, negative starts, ties on start and on
// ports, and list schedules of random coflows, under the identity map and
// under Algorithm 2's stretch-and-snap. One scratch serves every call, as
// the pool hands it from request to request.
func TestPlaceMatchesComparatorSort(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	var s mulScratch
	pushes := 0
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(24)
		if trial%40 == 0 {
			n = 300 // port pairs past 2^16: a third digit
		}
		var sp schedule.FlowSchedule
		if trial%4 == 3 {
			ds := make([]*matrix.Matrix, 1+rng.Intn(4))
			for k := range ds {
				ds[k], _ = matrix.New(n)
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						if rng.Intn(3) == 0 {
							ds[k].Set(i, j, 1+rng.Int63n(500))
						}
					}
				}
			}
			var err error
			if sp, err = packet.ListSchedule(ds, rng.Perm(len(ds))); err != nil {
				t.Fatal(err)
			}
		} else {
			span := int64(1 + rng.Intn(2000))
			for range rng.Intn(400) {
				start := rng.Int63n(2*span) - span // negative starts too
				sp = append(sp, schedule.FlowInterval{
					Start: start, End: start + rng.Int63n(60), // zero-length too
					In: rng.Intn(n), Out: rng.Intn(n), Coflow: rng.Intn(3),
				})
			}
		}
		snap := func(t int64) int64 { return t }
		if trial%2 == 1 {
			var err error
			if snap, err = gridSnap(1+rng.Int63n(100), 1+rng.Int63n(16)); err != nil {
				t.Fatal(err)
			}
		}
		got, gotPushed, err := s.place(sp, n, snap)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, wantPushed := refPlace(sp, n, snap)
		if gotPushed != wantPushed || !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d, %d flows): place diverges from the comparator sort", trial, n, len(sp))
		}
		if gotPushed {
			pushes++
		}
	}
	if pushes == 0 {
		t.Fatal("no trial pushed a flow")
	}
}

// TestConcurrentScheduleMulSharesScratch runs the pipeline on batches of
// different sizes from several goroutines at once, so each call takes
// scratch that a larger or smaller call left in the pools; under -race it
// is the check that no scratch is ever in two hands. Every result must
// equal what the exported stages, run serially beforehand, return.
func TestConcurrentScheduleMulSharesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type job struct {
		ds   []*matrix.Matrix
		want *MulResult
		pkt  []int64
	}
	jobs := make([]job, 8)
	for k := range jobs {
		n := 2 + rng.Intn(30)
		ds := make([]*matrix.Matrix, 1+rng.Intn(6))
		for c := range ds {
			ds[c], _ = matrix.New(n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if rng.Intn(2) == 0 {
						ds[c].Set(i, j, 1+rng.Int63n(1000))
					}
				}
			}
		}
		order, err := ordering.PrimalDual(ds, nil)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := packet.ListSchedule(ds, order)
		if err != nil {
			t.Fatal(err)
		}
		want, err := RecoMul(sp, n, 20, 4)
		if err != nil {
			t.Fatal(err)
		}
		jobs[k] = job{ds, want, sp.CCTs(len(ds))}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 6; round++ {
				j := jobs[(w+round)%len(jobs)]
				got, err := ScheduleMulCtx(context.Background(), j.ds, nil, 20, 4)
				if err != nil {
					t.Errorf("worker %d round %d: %v", w, round, err)
				} else if !slices.Equal(got.Flows, j.want.Flows) || got.Reconfigs != j.want.Reconfigs || !slices.Equal(got.PacketCCTs, j.pkt) {
					t.Errorf("worker %d round %d: the pipeline in pooled scratch differs from its stages run serially", w, round)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestCountBelowMatchesBinarySearch checks the gallop against a binary
// search over all the instants, from every valid starting count, on
// ascending lists of 0–300 instants with probes below, on and past every
// instant.
func TestCountBelowMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for trial := 0; trial < 300; trial++ {
		instants := make([]int64, rng.Intn(301))
		var at int64 = rng.Int63n(100) - 50
		for k := range instants {
			at += 1 + rng.Int63n(1+int64(trial%7)*40)
			instants[k] = at
		}
		for probe := 0; probe < 40; probe++ {
			x := rng.Int63n(at+200) - 100
			want, _ := slices.BinarySearch(instants, x)
			for lo := 0; lo <= want; lo++ {
				if got := countBelow(instants, lo, x); got != want {
					t.Fatalf("trial %d: countBelow(%d instants, lo %d, %d) = %d, want %d", trial, len(instants), lo, x, got, want)
				}
			}
		}
	}
}

// TestInjectEndShiftMatchesBinarySearch runs place and inject on the random
// schedules TestPlaceMatchesComparatorSort draws — zero-length flows,
// pushed flows, negative starts — and holds every flow's end to the one a
// binary search over all of the reconfiguration instants gives: the pseudo
// end plus δ for each instant strictly before it.
func TestInjectEndShiftMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var s mulScratch
	zeroLen, pushes := 0, 0
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(24)
		span := int64(1 + rng.Intn(2000))
		var sp schedule.FlowSchedule
		for range rng.Intn(400) {
			start := rng.Int63n(2*span) - span
			sp = append(sp, schedule.FlowInterval{
				Start: start, End: start + rng.Int63n(60),
				In: rng.Intn(n), Out: rng.Intn(n), Coflow: rng.Intn(3),
			})
		}
		snap := func(t int64) int64 { return t }
		if trial%2 == 1 {
			var err error
			if snap, err = gridSnap(1+rng.Int63n(100), 1+rng.Int63n(16)); err != nil {
				t.Fatal(err)
			}
		}
		fs, pushed, err := s.place(sp, n, snap)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if pushed {
			pushes++
		}
		fs = slices.Clone(fs)
		delta := 1 + rng.Int63n(50)
		res := s.inject(sp, fs, n, delta)
		for k, f := range fs {
			end := f.start + sp[f.idx].Duration()
			if end == f.start {
				zeroLen++
			}
			frozen, _ := slices.BinarySearch(s.instants, end)
			if want := end + int64(frozen)*delta; res.Flows[k].End != want {
				t.Fatalf("trial %d flow %d: end %d, want %d", trial, k, res.Flows[k].End, want)
			}
		}
	}
	if zeroLen == 0 || pushes == 0 {
		t.Fatalf("%d zero-length flows and %d pushed trials: the corpus misses a case", zeroLen, pushes)
	}
}
