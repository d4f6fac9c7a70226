package bvn

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"reco/internal/matching"
	"reco/internal/matrix"
)

// TestMaxMinGolden pins what the max–min extraction returns for a seeded
// corpus: the SHA-256 of every term's permutation and coefficient from
// DecomposeCtx(…, MaxMin), and of matching.BottleneckPerfect's matching,
// value and error. The corpus spans n ∈ {3…9, 63, 64, 65, 128}, so both
// one-word and multi-word bitset rows, with four shapes per n: the δ-regularized
// dense matrix a Reco-Sin request decomposes (n ≥ 4), a tie-heavy dense one (every
// entry 100, 200 or 300 before stuffing), an arbitrary sparse one, and a
// sum of permutations whose entries lie above 2³², one near MaxInt64/n.
// BottleneckPerfect also sees each matrix before stuffing, where the sparse
// one often has no perfect matching. The digests were taken before the
// engine's support sort changed and are not to be re-pinned by a change
// that claims to leave results alone.
func TestMaxMinGolden(t *testing.T) {
	want := map[string]string{
		"decompose":  "f88805c5b9de836e37d5dbdf7e1f357b16a9a35bd92ff752455aabe5275f1dbd",
		"bottleneck": "a2e9843635e0275eece77b3ebc8845d07311374c04b8a089eb9bfdbb8296191a",
	}
	got := map[string]*strings.Builder{"decompose": {}, "bottleneck": {}}

	rng := rand.New(rand.NewSource(3333))
	for _, n := range []int{3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 128} {
		ties, _ := matrix.New(n)
		for k := range ties.Cells() {
			if rng.Intn(4) > 0 {
				ties.Cells()[k] = 100 * (1 + rng.Int63n(3))
			}
		}
		sparse, _ := matrix.New(n)
		for i := 0; i < n; i++ {
			for e := 0; e < 2; e++ {
				sparse.Set(i, rng.Intn(n), 1+rng.Int63n(1_000_000))
			}
		}
		huge, _ := matrix.New(n)
		const perms = 4
		for p := 0; p < perms; p++ {
			// One large term, the rest in [2³², 2³³): every row sums to at
			// most MaxInt64/n.
			coef := 1<<32 + rng.Int63n(1<<32)
			if p == 0 {
				coef = math.MaxInt64/int64(n) - (perms-1)<<33
			}
			for i, j := range rng.Perm(n) {
				huge.Add(i, j, coef)
			}
		}
		cases := []struct {
			name    string
			raw, ds *matrix.Matrix
		}{
			{"ties", ties, matrix.StuffPreferNonZero(ties)},
			{"sparse", sparse, matrix.StuffPreferNonZero(sparse)},
			{"huge", nil, huge},
		}
		if n >= 4 { // the generator's smallest fabric
			cases = append(cases, struct {
				name    string
				raw, ds *matrix.Matrix
			}{"dense-reg", nil, benchDenseRegularized(rng, n)})
		}
		for _, c := range cases {
			label := fmt.Sprintf("n=%d %s", n, c.name)
			terms, err := DecomposeCtx(context.Background(), c.ds, MaxMin)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			fmt.Fprintf(got["decompose"], "%s terms=%d\n", label, len(terms))
			for _, term := range terms {
				fmt.Fprintf(got["decompose"], "%v %d\n", term.Perm, term.Dur)
			}
			for _, m := range []*matrix.Matrix{c.raw, c.ds} {
				if m == nil {
					continue
				}
				perm, v, err := matching.BottleneckPerfect(m)
				fmt.Fprintf(got["bottleneck"], "%s %v %d %v\n", label, perm, v, err)
			}
		}
	}

	for name, w := range want {
		sum := sha256.Sum256([]byte(got[name].String()))
		if h := hex.EncodeToString(sum[:]); h != w {
			t.Errorf("%s digest = %s, want %s", name, h, w)
		}
	}
}
