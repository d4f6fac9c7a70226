package bvn

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"reco/internal/matching"
	"reco/internal/matrix"
)

// TestDecomposeCtxCancelled: a cancelled context aborts the extraction loop
// before the next term and surfaces ctx.Err().
func TestDecomposeCtxCancelled(t *testing.T) {
	d, err := matrix.New(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			d.Set(i, j, int64(1+(i+j)%4))
		}
	}
	stuffed := matrix.Stuff(d)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DecomposeCtx(ctx, stuffed, MaxMin); !errors.Is(err, context.Canceled) {
		t.Fatalf("DecomposeCtx(cancelled) = %v, want context.Canceled", err)
	}

	// The same matrix still decomposes under a live context.
	terms, err := DecomposeCtx(context.Background(), stuffed, MaxMin)
	if err != nil {
		t.Fatalf("DecomposeCtx after cancel: %v", err)
	}
	if len(terms) == 0 {
		t.Fatal("no terms after successful decomposition")
	}
}

// cancelAfter is a context that reports cancellation from its n-th Err call
// on, which lets a test abandon a decomposition between two chosen terms.
type cancelAfter struct {
	context.Context
	left int
}

func (c *cancelAfter) Err() error {
	if c.left == 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// decomposeFresh is DecomposeCtx on an engine of its own, the oracle for what
// the pooled path must return.
func decomposeFresh(t *testing.T, m *matrix.Matrix) []Term {
	t.Helper()
	var terms []Term
	for eng := matching.NewEngine(m, matching.Descending); eng.Remaining() > 0; {
		perm, coef, err := eng.Extract()
		if err != nil {
			t.Fatal(err)
		}
		terms = append(terms, Term{Perm: perm, Dur: coef})
	}
	return terms
}

// TestCancelledDecompositionReturnsCleanEngine: a decomposition abandoned
// partway hands its engine back to the pool on the error path, and whatever
// the next call on this goroutine is handed — most likely that very engine,
// mid-extraction — decomposes a different matrix exactly as a fresh engine
// does.
func TestCancelledDecompositionReturnsCleanEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		abandoned := stuffedRandom(rng, 4+rng.Intn(70), 0.3)
		ctx := &cancelAfter{Context: context.Background(), left: 1 + rng.Intn(5)}
		var err error
		if trial%2 == 0 {
			_, err = DecomposeCtx(ctx, abandoned, MaxMin)
		} else {
			_, _, err = DecomposeK(ctx, abandoned, 1<<20)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("trial %d: abandoned decomposition returned %v, want context.Canceled", trial, err)
		}
		next := stuffedRandom(rng, 4+rng.Intn(70), 0.3)
		got, err := DecomposeCtx(context.Background(), next, MaxMin)
		if err != nil {
			t.Fatalf("trial %d: decomposition after a cancelled one: %v", trial, err)
		}
		if want := decomposeFresh(t, next); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: decomposition after a cancelled one differs from a fresh engine's", trial)
		}
	}
}

// TestConcurrentDecomposeSharesPoolSafely runs decompositions of different
// matrices and both strategies from several goroutines at once, all drawing
// on the one engine pool; under -race it is the check that no engine is ever
// in two hands. Every result must equal the one computed before the
// goroutines started.
func TestConcurrentDecomposeSharesPoolSafely(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	type job struct {
		m    *matrix.Matrix
		s    Strategy
		want []Term
	}
	jobs := make([]job, 8)
	for i := range jobs {
		m := stuffedRandom(rng, 4+rng.Intn(70), 0.3)
		s := Strategy(1 + i%2)
		want, err := DecomposeCtx(context.Background(), m, s)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = job{m, s, want}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 6; round++ {
				j := jobs[(w+round)%len(jobs)]
				got, err := DecomposeCtx(context.Background(), j.m, j.s)
				if err != nil {
					t.Errorf("worker %d round %d: %v", w, round, err)
				} else if !reflect.DeepEqual(got, j.want) {
					t.Errorf("worker %d round %d: concurrent decomposition differs from the serial one", w, round)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestDecomposeSlabMatchesExtraction: both strategies return, term for
// term, what a fresh engine's Extract or ExtractAny loop returns, and each
// term's Perm — a window of the one slab — has capacity n, so appending to
// a term's permutation never overwrites the next term's.
func TestDecomposeSlabMatchesExtraction(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 20; trial++ {
		m := stuffedRandom(rng, 2+rng.Intn(40), 0.4)
		for _, s := range []Strategy{MaxMin, FirstFit} {
			got, err := DecomposeCtx(context.Background(), m, s)
			if err != nil {
				t.Fatal(err)
			}
			order, extract := matching.Descending, (*matching.Engine).Extract
			if s == FirstFit {
				order, extract = matching.RowMajor, (*matching.Engine).ExtractAny
			}
			var want []Term
			for eng := matching.NewEngine(m, order); eng.Remaining() > 0; {
				perm, coef, err := extract(eng)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, Term{Perm: perm, Dur: coef})
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d strategy %d: slab decomposition differs from the extraction loop", trial, s)
			}
			for k := range got[:len(got)-1] {
				if c := cap(got[k].Perm); c != m.N() {
					t.Fatalf("trial %d strategy %d: term %d Perm has capacity %d, want %d", trial, s, k, c, m.N())
				}
				next := slices.Clone(got[k+1].Perm)
				_ = append(got[k].Perm, -1)
				if !slices.Equal(got[k+1].Perm, next) {
					t.Fatalf("trial %d strategy %d: appending to term %d changed term %d", trial, s, k, k+1)
				}
			}
		}
	}
}
