package ordering

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"reco/internal/lp"
	"reco/internal/matrix"
	"reco/internal/workload"
)

// TestLPIIGolden pins the interval-indexed LP and the simplex under it: the
// SHA-256 of LPIICtx's order, estimates and groups over seeded batches, and
// of lp.SolveCtx's X, Objective and error outcome over seeded random problems.
// Floats are dumped as their bits after adding +0, which maps −0 to +0: the
// sign of a zero is the one thing a change to the pivot may move, and nothing
// downstream can see it. The digests were taken before the sparse pivot and
// are not to be re-pinned by a change that claims to leave results alone.
func TestLPIIGolden(t *testing.T) {
	want := map[string]string{
		"lpii":  "45473d8030b3103fc0b6cbb6d171f6d572829d54f5979479efcbcd63e3543f48",
		"solve": "d912c1ef77ca586320dc65de7b001a1f156bae73255a495e02c3ba4a3703e7e1",
	}
	got := map[string]*strings.Builder{"lpii": {}, "solve": {}}

	rng := rand.New(rand.NewSource(2929))
	for b, shape := range []struct {
		n, coflows int
		fill       float64
	}{
		{4, 3, 0.5}, {8, 6, 0.3}, {12, 12, 0.4}, {16, 5, 0.8},
	} {
		batch := make([]*matrix.Matrix, shape.coflows)
		for k := range batch {
			batch[k] = lpGoldenDemand(rng, shape.n, shape.fill)
		}
		var w []float64
		if b%2 == 1 {
			w = make([]float64, len(batch))
			for k := range w {
				w[k] = float64(1 + rng.Intn(5))
			}
		}
		res, err := LPIICtx(context.Background(), batch, w)
		dumpLPII(got["lpii"], fmt.Sprintf("batch %d", b), res, err)
	}
	for s := int64(0); s < 3; s++ {
		coflows, err := workload.Generate(workload.GenConfig{N: 60, NumCoflows: 12, Seed: 290 + s, MinDemand: 400, MeanDemand: 400})
		if err != nil {
			t.Fatal(err)
		}
		batch := make([]*matrix.Matrix, len(coflows))
		for k, c := range coflows {
			batch[k] = c.Demand
		}
		res, err := LPIICtx(context.Background(), batch, nil)
		dumpLPII(got["lpii"], fmt.Sprintf("elephants %d", s), res, err)
	}

	for trial := 0; trial < 300; trial++ {
		p := lpGoldenProblem(t, rng)
		sol, err := p.SolveCtx(context.Background())
		w := got["solve"]
		fmt.Fprintf(w, "%d %s", trial, lpErrClass(err))
		if sol != nil {
			fmt.Fprintf(w, " obj=%x x=[", canonicalBits(sol.Objective))
			for _, x := range sol.X {
				fmt.Fprintf(w, "%x ", canonicalBits(x))
			}
			w.WriteString("]")
		}
		w.WriteString("\n")
	}

	for name, hexWant := range want {
		sum := sha256.Sum256([]byte(got[name].String()))
		if hexGot := hex.EncodeToString(sum[:]); hexGot != hexWant {
			t.Errorf("%s: digest %s, want %s (%d bytes dumped)", name, hexGot, hexWant, got[name].Len())
		}
	}
}

// canonicalBits is v's bit pattern with −0 folded into +0.
func canonicalBits(v float64) uint64 { return math.Float64bits(v + 0) }

func lpErrClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, lp.ErrInfeasible):
		return "infeasible"
	case errors.Is(err, lp.ErrUnbounded):
		return "unbounded"
	case errors.Is(err, lp.ErrIterationLimit):
		return "iteration-limit"
	}
	return "error"
}

func dumpLPII(w *strings.Builder, label string, r *LPIIResult, err error) {
	fmt.Fprintf(w, "%s %s", label, lpErrClass(err))
	if r != nil {
		fmt.Fprintf(w, " order=%v group=%v est=[", r.Order, r.Group)
		for _, e := range r.Estimate {
			fmt.Fprintf(w, "%x ", canonicalBits(e))
		}
		w.WriteString("]")
	}
	w.WriteString("\n")
}

// lpGoldenProblem draws a small LP over 1–8 variables with 1–8 LE, GE or EQ
// rows of small integer coefficients, some negative: feasible, infeasible and
// unbounded problems all occur.
func lpGoldenProblem(t *testing.T, rng *rand.Rand) *lp.Problem {
	t.Helper()
	p := lp.NewProblem()
	nv := 1 + rng.Intn(8)
	for v := 0; v < nv; v++ {
		p.AddVariable(float64(rng.Intn(13) - 3))
	}
	for c, nc := 0, 1+rng.Intn(8); c < nc; c++ {
		terms := map[int]float64{}
		for v := 0; v < nv; v++ {
			if rng.Intn(3) > 0 {
				terms[v] = float64(rng.Intn(11) - 3)
			}
		}
		if err := p.AddConstraint(terms, lp.Op(1+rng.Intn(3)), float64(rng.Intn(31)-5)); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func lpGoldenDemand(rng *rand.Rand, n int, fill float64) *matrix.Matrix {
	m, _ := matrix.New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < fill {
				m.Set(i, j, 1+rng.Int63n(2000))
			}
		}
	}
	return m
}
