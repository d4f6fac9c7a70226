package plancache

import (
	"testing"

	"reco/internal/algo"
	"reco/internal/matrix"
)

// TestFingerprintGoldenVectors pins cache keys: a changed key would
// silently orphan every cached plan across a deploy.
// The hex was re-pinned once, when the matrix serialization became the
// zero-run form (see Fingerprint); TestFingerprintMatchesTokenReference
// derives the same keys from that form written one token at a time. The
// last vector is two 24×24 matrices, so tokens cross the 4 KB chunk
// boundary.
func TestFingerprintGoldenVectors(t *testing.T) {
	big, err := matrix.New(24)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		for j := 0; j < 24; j++ {
			big.Set(i, j, int64((i*31+j*17)%1000)*int64(1+i))
		}
	}
	cases := []struct {
		alg   string
		req   algo.Request
		exact string
	}{
		{algo.NameRecoSin, algo.Request{
			Demands: []*matrix.Matrix{mustMatrix(t, [][]int64{{0, 400, 30}, {250, 0, 7}, {1, 90, 0}})},
			Delta:   100, C: 4,
		},
			"710f7902ad13f2b878656f8b2a053c93c1413c57705089096913ac67036a0e1e",
		},
		{algo.NameRecoMul, algo.Request{
			Demands: []*matrix.Matrix{
				mustMatrix(t, [][]int64{{0, 5}, {5, 0}}),
				mustMatrix(t, [][]int64{{3, 0}, {0, 9}}),
			},
			Weights: []float64{1, 2.5}, Delta: 10, C: 4,
		},
			"31732ac10e182424a374ee4d1ab7ca41a925f0649eeba4b7cc3410b455a62d40",
		},
		{algo.NameRecoSparse, algo.Request{
			Demands: []*matrix.Matrix{mustMatrix(t, [][]int64{
				{0, 100000, 2047, 1},
				{99999, 0, 0, 65536},
				{4095, 31, 0, 70000},
				{12, 0, 8191, 0},
			})},
			Delta: 250, C: 4, Knobs: algo.Knobs{Cores: 2, K: 3, ElecFrac: 0.25},
		},
			"7699b84f79f24c11fe7976487539cdf74805ddb5cb130395abaa1e8d9955def5",
		},
		{algo.NameRecoMul, algo.Request{Demands: []*matrix.Matrix{big, big}, Delta: 100, C: 4},
			"4322b296c94129a04506e531747605bc28d9c1c6067cdb5ab13eed88233eedef",
		},
	}
	for i, tc := range cases {
		if got := Fingerprint(tc.alg, tc.req); got != tc.exact {
			t.Errorf("case %d: exact key %s, want %s", i, got, tc.exact)
		}
	}
}
