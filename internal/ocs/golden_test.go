package ocs_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"reco/internal/bvn"
	"reco/internal/core"
	"reco/internal/kcore"
	"reco/internal/matrix"
	"reco/internal/ocs"
	"reco/internal/workload"
)

// TestSequentialGolden pins what the sequential executors return, every
// SeqResult field and every flow, over seeded batches: the SHA-256 of a
// canonical text dump per entry point. It covers ocs.ExecSequential with
// Reco-Sin and first-fit BvN plans (LP-II-GB's) and kcore.ExecSequential over
// uniform and mixed fabrics, in shuffled orders, with one all-zero coflow and
// one single-coflow batch. The digests were taken before Sequence reserved
// one flow list per sequence and are not to be re-pinned by a change that
// claims to leave results alone.
func TestSequentialGolden(t *testing.T) {
	want := map[string]string{
		"ocs":   "9c683959c9592f37061f5d1ea745f6d2634e1ccd55b1d6fd13dcef8f2fd2cce8",
		"kcore": "d181a513fc0d570b5968810372f0eafdb88ff0e9afa1240b274bca8bf08e8c32",
	}
	got := map[string]*strings.Builder{"ocs": {}, "kcore": {}}

	rng := rand.New(rand.NewSource(2828))
	for b, shape := range []struct {
		n, coflows int
		fill       float64
		delta      int64
	}{
		{4, 1, 0.6, 20}, {6, 3, 0.4, 0}, {8, 5, 0.7, 30}, {12, 4, 0.2, 55}, {16, 6, 0.5, 100},
	} {
		batch := make([]*matrix.Matrix, shape.coflows)
		for k := range batch {
			batch[k] = seqGoldenDemand(rng, shape.n, shape.fill)
		}
		if shape.coflows > 2 {
			batch[1], _ = matrix.New(shape.n) // the all-zero coflow
		}
		seqGoldenBatch(t, got, fmt.Sprintf("batch %d", b), batch, shape.delta, rng)
	}
	// One fig7/fig8-shaped batch: 12 elephant coflows on 24 ports.
	coflows, err := workload.Generate(workload.GenConfig{N: 24, NumCoflows: 12, Seed: 28, MinDemand: 400, MeanDemand: 400})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]*matrix.Matrix, len(coflows))
	for k, c := range coflows {
		batch[k] = c.Demand
	}
	seqGoldenBatch(t, got, "elephants", batch, 100, rng)

	for name, hexWant := range want {
		sum := sha256.Sum256([]byte(got[name].String()))
		if hexGot := hex.EncodeToString(sum[:]); hexGot != hexWant {
			t.Errorf("%s: digest %s, want %s (%d bytes dumped)", name, hexGot, hexWant, got[name].Len())
		}
	}
}

// seqGoldenBatch dumps one batch through both sequential executors: each plan
// kind in two shuffled orders, then a plan cut short (an error), then the
// K-core executor on three fabrics.
func seqGoldenBatch(t *testing.T, got map[string]*strings.Builder, label string, batch []*matrix.Matrix, delta int64, rng *rand.Rand) {
	t.Helper()
	recoSin := make([]ocs.CircuitSchedule, len(batch))
	firstFit := make([]ocs.CircuitSchedule, len(batch))
	for k, d := range batch {
		var err error
		if recoSin[k], err = core.RecoSin(d, delta); err != nil {
			t.Fatalf("%s coflow %d: %v", label, k, err)
		}
		if firstFit[k], err = seqGoldenFirstFit(d); err != nil {
			t.Fatalf("%s coflow %d: %v", label, k, err)
		}
	}
	w := got["ocs"]
	for pi, plans := range [][]ocs.CircuitSchedule{recoSin, firstFit} {
		for trial := 0; trial < 2; trial++ {
			seq, err := ocs.ExecSequential(batch, plans, rng.Perm(len(batch)), delta)
			fmt.Fprintf(w, "%s plan %d trial %d ", label, pi, trial)
			dumpSeqGolden(w, seq, err)
		}
	}
	short := append([]ocs.CircuitSchedule(nil), recoSin...)
	last := len(short) - 1
	short[last] = short[last][:len(short[last])/2]
	seq, err := ocs.ExecSequential(batch, short, rng.Perm(len(batch)), delta)
	fmt.Fprintf(w, "%s short ", label)
	dumpSeqGolden(w, seq, err)

	uniform := func(k int) kcore.Topology {
		topo, err := kcore.Uniform(k, max(delta, 1))
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}
	mixed := kcore.Topology{Cores: []kcore.Core{
		{Bandwidth: 1, Delta: delta}, {Bandwidth: 2, Delta: 2 * delta}, {Bandwidth: 3, Delta: delta / 2},
	}}
	for ti, topo := range []kcore.Topology{uniform(1), uniform(3), mixed} {
		splits := make([][]*matrix.Matrix, len(batch))
		plans := make([][]ocs.CircuitSchedule, len(batch))
		for k, d := range batch {
			if splits[k], err = kcore.SplitGreedy(d, topo); err != nil {
				t.Fatalf("%s topology %d coflow %d: %v", label, ti, k, err)
			}
			plans[k] = make([]ocs.CircuitSchedule, len(splits[k]))
			for c, share := range splits[k] {
				if plans[k][c], err = core.RecoSin(share, topo.Cores[c].Delta); err != nil {
					t.Fatalf("%s topology %d coflow %d core %d: %v", label, ti, k, c, err)
				}
			}
		}
		seq, err := kcore.ExecSequential(topo, splits, plans, rng.Perm(len(batch)))
		fmt.Fprintf(got["kcore"], "%s topology %d ", label, ti)
		dumpSeqGolden(got["kcore"], seq, err)
	}
}

// seqGoldenFirstFit is LP-II-GB's per-coflow plan: stuff, then first-fit BvN.
func seqGoldenFirstFit(d *matrix.Matrix) (ocs.CircuitSchedule, error) {
	if d.IsZero() {
		return nil, nil
	}
	terms, err := bvn.DecomposeCtx(context.Background(), matrix.Stuff(d), bvn.FirstFit)
	if err != nil {
		return nil, err
	}
	cs := make(ocs.CircuitSchedule, len(terms))
	for i, tm := range terms {
		cs[i] = ocs.Assignment{Perm: tm.Perm, Dur: tm.Coef}
	}
	return cs, nil
}

func seqGoldenDemand(rng *rand.Rand, n int, fill float64) *matrix.Matrix {
	m, _ := matrix.New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < fill {
				m.Set(i, j, 1+rng.Int63n(900))
			}
		}
	}
	if m.IsZero() {
		m.Set(n-1, 0, 11)
	}
	return m
}

// dumpSeqGolden writes every field of one sequential result.
func dumpSeqGolden(w *strings.Builder, r ocs.SeqResult, err error) {
	class := "ok"
	switch {
	case errors.Is(err, ocs.ErrIncomplete):
		class = "incomplete"
	case errors.Is(err, ocs.ErrInvalidAssignment):
		class = "invalid"
	case err != nil:
		class = "error"
	}
	fmt.Fprintf(w, "%s ccts=%v reconfigs=%d conf=%d trans=%d flows=%d[", class, r.CCTs, r.Reconfigs, r.ConfTime, r.TransTime, len(r.Flows))
	for _, f := range r.Flows {
		fmt.Fprintf(w, "%d-%d:%d>%d#%d ", f.Start, f.End, f.In, f.Out, f.Coflow)
	}
	w.WriteString("]\n")
}
