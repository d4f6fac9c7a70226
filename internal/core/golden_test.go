package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"reco/internal/matrix"
	"reco/internal/ordering"
	"reco/internal/packet"
	"reco/internal/schedule"
	"reco/internal/workload"
)

// TestRecoMulGolden pins what the Reco-Mul pipeline returns, field by field,
// for a seeded corpus: the SHA-256 of a canonical text dump per entry point.
// The corpus is Table I/II batches at n ∈ {4, 16, 32} and K ∈ {1, 4, 16},
// the same shapes with flows far below c·δ (so conflict resolution pushes),
// and two hand-made batches (tied durations, an empty coflow), under
// c ∈ {1, 2, 4, 9, 100}, δ ∈ {1, 100} and nil or random weights. The
// digests were taken before the pipeline lost its quadratic passes and are
// not to be re-pinned by a change that claims to leave results alone.
func TestRecoMulGolden(t *testing.T) {
	want := map[string]string{
		"list":     "43db76b50f3f3e50fa289b11b34348c8cb57c19c370fb4328944c8c8f62c9192",
		"recomul":  "3875011e36b0c1a14f277727e74330add87e061610485a6749c7832d71618eb2",
		"nas":      "786a11fc2986eae371f0c7fb97a057a91ebf3def92fb89b3946ab1a8b05a8e28",
		"inject":   "ee51aa5cd4298a482bf35072523f43bbbaa8d14d86c5d6cddde79fbb52ea4bdd",
		"pipeline": "39cb415d2f614f9ca5cea821541fc848bb15b9ca627535570d4ffa21284da7a0",
	}
	got := map[string]*strings.Builder{}
	for name := range want {
		got[name] = &strings.Builder{}
	}

	rng := rand.New(rand.NewSource(2525))
	var batches [][]*matrix.Matrix
	for _, n := range []int{4, 16, 32} {
		for _, k := range []int{1, 4, 16} {
			for _, cfg := range []workload.GenConfig{
				{N: n, NumCoflows: k},
				{N: n, NumCoflows: k, MinDemand: 1, MeanDemand: 60},
			} {
				coflows, err := workload.GenerateWith(rng, cfg)
				if err != nil {
					t.Fatal(err)
				}
				ds := make([]*matrix.Matrix, len(coflows))
				for i, c := range coflows {
					ds[i] = c.Demand
				}
				batches = append(batches, ds)
			}
		}
	}
	ties := make([]*matrix.Matrix, 3)
	for k := range ties {
		ties[k], _ = matrix.New(6)
		for i := 0; i < 6; i++ {
			for j := 0; j < 6; j++ {
				if rng.Intn(3) > 0 {
					ties[k].Set(i, j, 100*int64(1+rng.Intn(3)))
				}
			}
		}
	}
	empty, _ := matrix.New(6)
	batches = append(batches, ties, []*matrix.Matrix{ties[0], empty, ties[1]})

	cs := []int64{1, 2, 4, 9, 100}
	deltas := []int64{1, 100}
	for b, ds := range batches {
		n := ds[0].N()
		pd, err := ordering.PrimalDual(ds, nil)
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		for oi, order := range [][]int{pd, rng.Perm(len(ds))} {
			sp, err := packet.ListSchedule(ds, order)
			fmt.Fprintf(got["list"], "%d/%d %s", b, oi, errText(err))
			dumpFlowSchedule(got["list"], sp)
			for _, delta := range deltas {
				res, err := InjectDelays(sp, n, delta)
				fmt.Fprintf(got["inject"], "%d/%d/%d ", b, oi, delta)
				dumpMul(got["inject"], res, err)
				for _, c := range cs {
					res, err := RecoMul(sp, n, delta, c)
					fmt.Fprintf(got["recomul"], "%d/%d/%d/%d ", b, oi, delta, c)
					dumpMul(got["recomul"], res, err)
					res, err = RecoMulNAS(sp, n, delta, c)
					fmt.Fprintf(got["nas"], "%d/%d/%d/%d ", b, oi, delta, c)
					dumpMul(got["nas"], res, err)
				}
			}
		}
		weights := make([]float64, len(ds))
		for k := range weights {
			weights[k] = float64(rng.Intn(4)) * rng.Float64()
		}
		for wi, w := range [][]float64{nil, weights} {
			for _, delta := range deltas {
				for _, c := range cs {
					res, err := ScheduleMulCtx(context.Background(), ds, w, delta, c)
					fmt.Fprintf(got["pipeline"], "%d/%d/%d/%d %s", b, wi, delta, c, errText(err))
					if res != nil {
						fmt.Fprintf(got["pipeline"], " ccts=%v packet=%v reconfigs=%d conf=%d", res.CCTs, res.PacketCCTs, res.Reconfigs, res.ConfTime)
						dumpFlowSchedule(got["pipeline"], res.Flows)
					}
					got["pipeline"].WriteString("\n")
				}
			}
		}
	}

	for name, hexWant := range want {
		sum := sha256.Sum256([]byte(got[name].String()))
		if hexGot := hex.EncodeToString(sum[:]); hexGot != hexWant {
			t.Errorf("%s: digest %s, want %s (%d bytes dumped)", name, hexGot, hexWant, got[name].Len())
		}
	}
}

func errText(err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return "ok"
}

func dumpFlowSchedule(w *strings.Builder, flows schedule.FlowSchedule) {
	fmt.Fprintf(w, " flows=%d[", len(flows))
	for _, f := range flows {
		fmt.Fprintf(w, "%d-%d/%d:%d>%d#%d ", f.Start, f.End, f.Gap, f.In, f.Out, f.Coflow)
	}
	w.WriteString("]\n")
}

func dumpMul(w *strings.Builder, r *MulResult, err error) {
	w.WriteString(errText(err))
	if r == nil {
		w.WriteString(" nil\n")
		return
	}
	fmt.Fprintf(w, " reconfigs=%d conf=%d", r.Reconfigs, r.ConfTime)
	dumpFlowSchedule(w, r.Flows)
}
