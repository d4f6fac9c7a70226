package plancache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"reco/internal/algo"
	"reco/internal/matrix"
)

// TestFingerprintSeparatesZeroPlacement: the key writes zeros as run
// lengths, so every way two requests can differ only in where their zeros
// sit must still change the key — a collision is a wrong schedule served.
func TestFingerprintSeparatesZeroPlacement(t *testing.T) {
	m := func(rows ...[]int64) *matrix.Matrix { return mustMatrix(t, rows) }
	reqs := []struct {
		name    string
		demands []*matrix.Matrix
	}{
		// One non-zero moved along its row, its column, and to the corners.
		{"7 at (2,2)", []*matrix.Matrix{m([]int64{5, 0, 0}, []int64{0, 0, 0}, []int64{0, 0, 7})}},
		{"7 at (2,1)", []*matrix.Matrix{m([]int64{5, 0, 0}, []int64{0, 0, 0}, []int64{0, 7, 0})}},
		{"7 at (1,2)", []*matrix.Matrix{m([]int64{5, 0, 0}, []int64{0, 0, 7}, []int64{0, 0, 0})}},
		{"7 at (0,1)", []*matrix.Matrix{m([]int64{5, 7, 0}, []int64{0, 0, 0}, []int64{0, 0, 0})}},
		{"leading zero", []*matrix.Matrix{m([]int64{0, 5, 0}, []int64{0, 0, 0}, []int64{0, 0, 7})}},
		// The same leading cells, a different n: only trailing zeros differ.
		{"5 then zeros, n=2", []*matrix.Matrix{m([]int64{5, 0}, []int64{0, 0})}},
		{"5 then zeros, n=3", []*matrix.Matrix{m([]int64{5, 0, 0}, []int64{0, 0, 0}, []int64{0, 0, 0})}},
		{"all zero, n=2", []*matrix.Matrix{m([]int64{0, 0}, []int64{0, 0})}},
		{"all zero, n=3", []*matrix.Matrix{m([]int64{0, 0, 0}, []int64{0, 0, 0}, []int64{0, 0, 0})}},
		// A run that crosses a row end against the same run cut at it.
		{"run of 4 across rows", []*matrix.Matrix{m([]int64{1, 0, 0}, []int64{0, 0, 1}, []int64{0, 0, 0})}},
		{"runs of 2 and 2", []*matrix.Matrix{m([]int64{1, 0, 0}, []int64{1, 0, 0}, []int64{1, 0, 0})}},
		{"run of 3 then row start", []*matrix.Matrix{m([]int64{1, 0, 0}, []int64{0, 1, 0}, []int64{0, 0, 0})}},
		// A cell equal to a run length, and a run equal to a cell.
		{"cell 3", []*matrix.Matrix{m([]int64{3, 1}, []int64{0, 0})}},
		{"run 3", []*matrix.Matrix{m([]int64{0, 0}, []int64{0, 1})}},
		// The same cells split differently across two demands.
		{"1 | 2 last", []*matrix.Matrix{m([]int64{1, 0}, []int64{0, 0}), m([]int64{0, 0}, []int64{0, 2})}},
		{"1 | 2 third", []*matrix.Matrix{m([]int64{1, 0}, []int64{0, 0}), m([]int64{0, 0}, []int64{2, 0})}},
		{"1 2 | zeros", []*matrix.Matrix{m([]int64{1, 0}, []int64{0, 2}), m([]int64{0, 0}, []int64{0, 0})}},
		{"zeros | 1 2", []*matrix.Matrix{m([]int64{0, 0}, []int64{0, 0}), m([]int64{1, 0}, []int64{0, 2})}},
		{"1 2 alone", []*matrix.Matrix{m([]int64{1, 0}, []int64{0, 2})}},
		{"nil | 1 2", []*matrix.Matrix{nil, m([]int64{1, 0}, []int64{0, 2})}},
	}
	seen := map[string]string{}
	for _, r := range reqs {
		key := Fingerprint("x", algo.Request{Demands: r.demands, Delta: 10})
		if other, dup := seen[key]; dup {
			t.Errorf("%q and %q share a key", r.name, other)
		}
		seen[key] = r.name
	}

}

// referenceKey is the exact fingerprint written from its documentation, one
// hash write per field and per token, with none of fingerprint's chunking.
func referenceKey(alg string, req algo.Request) string {
	h := sha256.New()
	put := func(v uint64) { _ = binary.Write(h, binary.LittleEndian, v) }
	h.Write(append([]byte(alg), 0))
	put(uint64(req.Delta))
	put(uint64(req.C))
	for i := range algo.KnobTable {
		put(algo.KnobTable[i].Bits(req.Knobs))
	}
	put(uint64(len(req.Weights)))
	for _, w := range req.Weights {
		put(math.Float64bits(w))
	}
	put(uint64(len(req.Demands)))
	for _, d := range req.Demands {
		if d == nil {
			put(uint64(1<<64 - 1))
			continue
		}
		n := d.N()
		put(uint64(n))
		for idx := 0; idx < n*n; {
			if v := d.At(idx/n, idx%n); v != 0 {
				put(uint64(v))
				idx++
				continue
			}
			run := 0
			for ; idx < n*n && d.At(idx/n, idx%n) == 0; idx++ {
				run++
			}
			put(uint64(-int64(run)))
		}
	}
	if req.NoFlows {
		put(1)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFingerprintMatchesTokenReference holds the chunked writer to the
// token stream the doc comment describes, on matrices whose token count
// lands the 4 KB flush at every phase: dense, sparse, runs at the chunk
// edge, a run closing the matrix; every other request sets NoFlows.
func TestFingerprintMatchesTokenReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		density := []float64{0.01, 0.3, 0.5, 0.9, 1}[rng.Intn(5)]
		req := algo.Request{Delta: 100, C: 4, Weights: []float64{1.5}, NoFlows: trial%2 == 1}
		for k := 1 + rng.Intn(2); k > 0; k-- {
			m, err := matrix.New(n)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if rng.Float64() < density {
						m.Set(i, j, 1+rng.Int63n(1000))
					}
				}
			}
			req.Demands = append(req.Demands, m)
		}
		if got, want := Fingerprint("reco-sin", req), referenceKey("reco-sin", req); got != want {
			t.Fatalf("trial %d (n=%d, density %v): key %s, token reference %s", trial, n, density, got, want)
		}
	}
}

// fuzzRequest decodes fuzz bytes into a small request: an algorithm name, δ,
// c, knobs, NoFlows, up to two weights and up to two demands of dimension 1–3 (one in
// seven nil) whose cells are mostly zero. Bytes that run out read as 0.
func fuzzRequest(data []byte) (string, algo.Request) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	alg := []string{algo.NameRecoSin, algo.NameRecoMul, "x"}[next()%3]
	req := algo.Request{Delta: int64(next() % 3), C: int64(next() % 3)}
	kb := next()
	req.Knobs = algo.Knobs{Cores: kb & 1, K: kb >> 1 & 1, ElecFrac: float64(kb>>2&1) / 2}
	req.NoFlows = kb>>3&1 == 1
	for w := next() % 3; w > 0; w-- {
		req.Weights = append(req.Weights, float64(next()%3))
	}
	for d := next() % 3; d > 0; d-- {
		shape := next()
		if shape%7 == 6 {
			req.Demands = append(req.Demands, nil)
			continue
		}
		n := 1 + shape%3
		rows := make([][]int64, n)
		for i := range rows {
			rows[i] = make([]int64, n)
			for j := range rows[i] {
				rows[i][j] = []int64{0, 0, 0, 1, 2, 3}[next()%6]
			}
		}
		m, err := matrix.FromRows(rows)
		if err != nil {
			panic(err)
		}
		req.Demands = append(req.Demands, m)
	}
	return alg, req
}

// FuzzFingerprintInjective: two requests share a key exactly when they are
// the same request — algorithm, δ, c, knobs, weights and every matrix. The
// zero-run serialization is where a collision could hide (a run traded for
// a cell, zeros sliding across a row end or a matrix boundary), so the
// decoded requests are tiny and mostly zero.
func FuzzFingerprintInjective(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0, 1, 1, 0, 0, 1, 1, 3, 0, 0, 0}, []byte{0, 1, 1, 0, 0, 1, 1, 0, 3, 0, 0})
	f.Add([]byte{0, 1, 1, 0, 0, 1, 1, 3, 0, 0, 0}, []byte{0, 1, 1, 0, 0, 1, 2, 3})
	f.Add([]byte{2, 0, 0, 0, 0, 2, 1, 0, 0, 0, 4, 1, 0, 0, 0, 5}, []byte{2, 0, 0, 0, 0, 2, 1, 0, 0, 0, 0, 1, 4, 0, 0, 5})
	f.Add([]byte{1, 2, 2, 7, 2, 1, 2, 2, 6, 0, 3}, []byte{1, 2, 2, 7, 2, 1, 2, 2, 0, 3})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		algA, reqA := fuzzRequest(a)
		algB, reqB := fuzzRequest(b)
		same := algA == algB && reflect.DeepEqual(reqA, reqB)
		if got := Fingerprint(algA, reqA) == Fingerprint(algB, reqB); got != same {
			t.Fatalf("keys equal: %v, requests equal: %v\n%s %+v\n%s %+v", got, same, algA, reqA, algB, reqB)
		}
	})
}
