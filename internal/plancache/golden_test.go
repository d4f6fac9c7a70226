package plancache

import (
	"testing"

	"reco/internal/algo"
	"reco/internal/matrix"
)

// TestFingerprintGoldenVectors pins cache keys: a changed key would
// silently orphan every cached plan (and split ε-buckets) across a deploy.
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
		alg          string
		req          algo.Request
		exact, eps05 string
	}{
		{algo.NameRecoSin, algo.Request{
			Demands: []*matrix.Matrix{mustMatrix(t, [][]int64{{0, 400, 30}, {250, 0, 7}, {1, 90, 0}})},
			Delta:   100, C: 4,
		},
			"710f7902ad13f2b878656f8b2a053c93c1413c57705089096913ac67036a0e1e",
			"13d97331b95af6e0aa47375e8674eaf65a11c8e1c8c408d36f5e60faa8d24d34"},
		{algo.NameRecoMul, algo.Request{
			Demands: []*matrix.Matrix{
				mustMatrix(t, [][]int64{{0, 5}, {5, 0}}),
				mustMatrix(t, [][]int64{{3, 0}, {0, 9}}),
			},
			Weights: []float64{1, 2.5}, Delta: 10, C: 4,
		},
			"31732ac10e182424a374ee4d1ab7ca41a925f0649eeba4b7cc3410b455a62d40",
			"17fd3b0cfcc6b151fc33d1c140694b0c2ab17140baf29d03f90a5c15fbfc5796"},
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
			"d6ac71a44d30fa9654e74152c42b218ba32535d73ce7d9519ea1c3a18099c993"},
		{algo.NameRecoMul, algo.Request{Demands: []*matrix.Matrix{big, big}, Delta: 100, C: 4},
			"4322b296c94129a04506e531747605bc28d9c1c6067cdb5ab13eed88233eedef",
			"39e35d4c04d8e6541a141e376d68f610bc64be76eeec9c7eddabc2799cd6d371"},
	}
	for i, tc := range cases {
		if got := Fingerprint(tc.alg, tc.req); got != tc.exact {
			t.Errorf("case %d: exact key %s, want %s", i, got, tc.exact)
		}
		if got := QuantizedFingerprint(tc.alg, tc.req, 0.05); got != tc.eps05 {
			t.Errorf("case %d: ε=0.05 key %s, want %s", i, got, tc.eps05)
		}
	}
}
