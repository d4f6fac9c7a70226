package bvn

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"reco/internal/matrix"
	"reco/internal/workload"
)

// benchStuffed builds an n×n sparse stuffed matrix (~8 positive entries per
// row, values 1..1000), the workload shape the schedulers decompose.
func benchStuffed(rng *rand.Rand, n int) *matrix.Matrix {
	m, err := matrix.New(n)
	if err != nil {
		panic(err)
	}
	for i := 0; i < n; i++ {
		for e := 0; e < 8; e++ {
			m.Set(i, rng.Intn(n), 1+rng.Int63n(1000))
		}
	}
	return matrix.StuffPreferNonZero(m)
}

// benchDenseRegularized builds what a dense Reco-Sin request decomposes: the
// first dense-class matrix of the synthetic Facebook-like generator, every
// entry rounded up to a multiple of δ = 100 (core.Regularize, which this
// package cannot import), stuffed. All its coefficients sit on the δ grid,
// so most terms repeat the previous bottleneck — benchStuffed's arbitrary
// values almost never do.
func benchDenseRegularized(rng *rand.Rand, n int) *matrix.Matrix {
	const delta = 100
	for {
		coflows, err := workload.GenerateWith(rng, workload.GenConfig{N: n})
		if err != nil {
			panic(err)
		}
		for _, c := range coflows {
			if workload.Classify(c.Demand) != workload.Dense {
				continue
			}
			m := c.Demand.Clone()
			for k, v := range m.Cells() {
				if rem := v % delta; rem != 0 {
					m.Cells()[k] = v + delta - rem
				}
			}
			return matrix.StuffPreferNonZero(m)
		}
	}
}

// BenchmarkDecomposeMaxMin measures a full max–min BvN decomposition per op
// at the fabric sizes the perf trajectory tracks (docs/PERF.md), on sparse
// arbitrary-valued supports and on the dense regularized shape recod serves.
func BenchmarkDecomposeMaxMin(b *testing.B) {
	inputs := []struct {
		name string
		m    *matrix.Matrix
	}{
		{"n=64", benchStuffed(rand.New(rand.NewSource(64)), 64)},
		{"n=128", benchStuffed(rand.New(rand.NewSource(128)), 128)},
		{"n=256", benchStuffed(rand.New(rand.NewSource(256)), 256)},
		{"dense-reg/n=64", benchDenseRegularized(rand.New(rand.NewSource(64)), 64)},
	}
	for _, in := range inputs {
		b.Run(in.name, func(b *testing.B) {
			m := in.m
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				terms, err := DecomposeCtx(context.Background(), m, MaxMin)
				if err != nil || len(terms) == 0 {
					b.Fatalf("terms=%d err=%v", len(terms), err)
				}
			}
		})
	}
}

// BenchmarkDecomposeFirstFit is the primitive-BvN counterpart, the hot path
// of the TMS and LP-II-GB baselines.
func BenchmarkDecomposeFirstFit(b *testing.B) {
	for _, n := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			m := benchStuffed(rand.New(rand.NewSource(int64(n))), n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				terms, err := DecomposeCtx(context.Background(), m, FirstFit)
				if err != nil || len(terms) == 0 {
					b.Fatalf("terms=%d err=%v", len(terms), err)
				}
			}
		})
	}
}

// BenchmarkDecomposeK measures the sparsity-bounded decomposition at the
// term bounds the frontier experiment sweeps: k warm-started max-min
// extractions plus the residual export, skipping the full decomposition's
// long tail of small terms (docs/PERF.md).
func BenchmarkDecomposeK(b *testing.B) {
	for _, k := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("k=%d/n=128", k), func(b *testing.B) {
			m := benchStuffed(rand.New(rand.NewSource(128)), 128)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				terms, _, err := DecomposeK(context.Background(), m, k)
				if err != nil || len(terms) == 0 {
					b.Fatalf("terms=%d err=%v", len(terms), err)
				}
			}
		})
	}
}

// raceBuild is set in a -race build (race_test.go).
var raceBuild bool

// TestDecomposeMaxMinAllocs holds a pooled max–min decomposition of the
// dense regularized n = 64 shape to its allocations: warm, on an engine the
// pool kept, only what the result carries and the ledger (4); cold, on an
// engine the pool has dropped as a garbage collection does, no more than
// the sorted list it replaced needed (104, against 93 now). A queue that
// kept a growable slice per bucket passes the first and fails the second.
// It is skipped under -race, whose sync.Pool drops at random.
func TestDecomposeMaxMinAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts under -race measure the detector's sync.Pool")
	}
	const warmBudget, coldBudget = 4, 104
	m := benchDenseRegularized(rand.New(rand.NewSource(64)), 64)
	decompose := func() {
		if _, err := DecomposeCtx(context.Background(), m, MaxMin); err != nil {
			t.Fatal(err)
		}
	}
	if warm := testing.AllocsPerRun(20, decompose); warm > warmBudget {
		t.Errorf("%.1f allocations per warm decomposition, budget %d", warm, warmBudget)
	}
	// Two collections empty the pool: the first moves it to its victim
	// cache, the second drops that.
	cold := testing.AllocsPerRun(5, func() {
		runtime.GC()
		runtime.GC()
		decompose()
	})
	if cold > coldBudget {
		t.Errorf("%.1f allocations per cold decomposition, budget %d", cold, coldBudget)
	}
}
