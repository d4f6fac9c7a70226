package solstice

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"reco/internal/matrix"
	"reco/internal/ocs"
	"reco/internal/workload"
)

// benchSink keeps the benchmarked schedule live.
var benchSink ocs.CircuitSchedule

// BenchmarkSolstice times Schedule on the first Table I normal and dense
// coflow the generator draws at n = 60 (the single-coflow figures' fabric)
// and n = 150 (the trace's).
func BenchmarkSolstice(b *testing.B) {
	for _, n := range []int{60, 150} {
		coflows, err := workload.GenerateWith(rand.New(rand.NewSource(1)), workload.GenConfig{N: n, NumCoflows: 60})
		if err != nil {
			b.Fatal(err)
		}
		for _, cl := range []workload.Class{workload.Normal, workload.Dense} {
			var d *matrix.Matrix
			for _, c := range coflows {
				if workload.Classify(c.Demand) == cl {
					d = c.Demand
					break
				}
			}
			if d == nil {
				b.Fatalf("n=%d: no %s coflow drawn", n, cl)
			}
			b.Run(fmt.Sprintf("n=%d/%s", n, cl), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					cs, err := Schedule(context.Background(), d)
					if err != nil {
						b.Fatal(err)
					}
					benchSink = cs
				}
			})
		}
	}
}
