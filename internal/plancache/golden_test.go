package plancache

import (
	"testing"

	"reco/internal/algo"
	"reco/internal/matrix"
)

// TestFingerprintGoldenVectors pins cache keys to the hex values computed
// before cells were hashed in bulk: a changed key would silently orphan
// every cached plan (and split ε-buckets) across a deploy. The last vector
// is two 24×24 matrices, so cells cross the 4 KB chunk boundary.
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
			"1d522526170629acf5f755d5b3fc9e85dc6e3ab2eaf318b5e6d7729dc86922bb",
			"de54187afff40aaf3d7c9600003584941ef26f1dbda3e1c9b8814d5c09c5c085"},
		{algo.NameRecoMul, algo.Request{
			Demands: []*matrix.Matrix{
				mustMatrix(t, [][]int64{{0, 5}, {5, 0}}),
				mustMatrix(t, [][]int64{{3, 0}, {0, 9}}),
			},
			Weights: []float64{1, 2.5}, Delta: 10, C: 4,
		},
			"4f3f84e24a8dd9886f9d80e79ba41fe89737e8a30f039bf8718a48e21a6a8594",
			"d3a22e7da95d5de369d1ca04e95f5f7e8ff239e1fad07b36399fbd82bb4e9e9d"},
		{algo.NameRecoSparse, algo.Request{
			Demands: []*matrix.Matrix{mustMatrix(t, [][]int64{
				{0, 100000, 2047, 1},
				{99999, 0, 0, 65536},
				{4095, 31, 0, 70000},
				{12, 0, 8191, 0},
			})},
			Delta: 250, C: 4, Knobs: algo.Knobs{Cores: 2, K: 3, ElecFrac: 0.25},
		},
			"e6cf0e812a082aca68183892ac29a7e7c382c4c79d03b2baebe1e213b2ebec4c",
			"ad9283ae6737219b3a14f210c65b2dee33253f9e1a66f4b9f5d3af7cda787252"},
		{algo.NameRecoMul, algo.Request{Demands: []*matrix.Matrix{big, big}, Delta: 100, C: 4},
			"3944069a012a3ad79eff7c5e7ecdbc8afdaf59df68763ed88b14b6f2ec4e8321",
			"33acb91e475b9934b824247a67bd7f89426f64ca604fcccbf1d4cbb3d38997d5"},
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
