package core

import (
	"context"
	"math/rand"
	"testing"

	"reco/internal/matrix"
	"reco/internal/workload"
)

// BenchmarkScheduleMul times the Reco-Mul pipeline in process — PrimalDual
// ordering, packet list schedule, Algorithm 2 — without the service around
// it. "table" cycles through n = 32 batches of 16 consecutive coflows of one
// Table I/II workload, the repository benchmark's multi_batch shape; every
// flow is at least c·δ = 400, so conflict resolution moves nothing
// (Lemma 2). "conflict" is one batch of the same shape whose flows are far
// below c·δ, so it pushes flows and re-sorts. flows/op is the mean number of
// flows per batch.
func BenchmarkScheduleMul(b *testing.B) {
	const n, perBatch, delta, c = 32, 16, 100, 4
	table, err := workload.GenerateWith(rand.New(rand.NewSource(32)), workload.GenConfig{N: n})
	if err != nil {
		b.Fatal(err)
	}
	conflict, err := workload.GenerateWith(rand.New(rand.NewSource(33)),
		workload.GenConfig{N: n, NumCoflows: perBatch, MinDemand: 1, MeanDemand: 60})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name    string
		coflows []workload.Coflow
	}{{"table", table}, {"conflict", conflict}} {
		var batches [][]*matrix.Matrix
		flows := 0
		for first := 0; first+perBatch <= len(bc.coflows); first += perBatch {
			ds := make([]*matrix.Matrix, perBatch)
			for k := range ds {
				ds[k] = bc.coflows[first+k].Demand
				flows += ds[k].NonZeros()
			}
			batches = append(batches, ds)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ScheduleMulCtx(context.Background(), batches[i%len(batches)], nil, delta, c); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(flows)/float64(len(batches)), "flows/op")
		})
	}
}
