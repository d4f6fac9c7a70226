package ordering

import (
	"context"
	"testing"

	"reco/internal/matrix"
	"reco/internal/workload"
)

// BenchmarkLPII times the interval-indexed LP behind LP-II-GB, the embedded
// simplex included, cycling through four fig7/fig8-shaped batches: 12
// elephant coflows on n = 60 ports, every flow near the c·δ = 400 floor.
func BenchmarkLPII(b *testing.B) {
	batches := make([][]*matrix.Matrix, 4)
	for s := range batches {
		coflows, err := workload.Generate(workload.GenConfig{N: 60, NumCoflows: 12, Seed: int64(s + 1), MinDemand: 400, MeanDemand: 400})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range coflows {
			batches[s] = append(batches[s], c.Demand)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LPIICtx(context.Background(), batches[i%len(batches)], nil); err != nil {
			b.Fatal(err)
		}
	}
}
