package builtin

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"reco/internal/algo"
	"reco/internal/matrix"
)

// goldenBatch draws one seeded batch: n 3–12 ports, 1–5 coflows of density
// 0.05–0.85 with cells 1–1000, random weights, δ 10–309 and c = 4.
func goldenBatch(rng *rand.Rand) algo.Request {
	n := 3 + rng.Intn(10)
	ds := make([]*matrix.Matrix, 1+rng.Intn(5))
	w := make([]float64, len(ds))
	density := 0.05 + 0.8*rng.Float64()
	for k := range ds {
		d, _ := matrix.New(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Float64() < density {
					d.Set(i, j, 1+rng.Int63n(1000))
				}
			}
		}
		ds[k], w[k] = d, 4*rng.Float64()
	}
	return algo.Request{Demands: ds, Weights: w, Delta: 10 + rng.Int63n(300), C: 4}
}

// goldenCorpus is TestRegistryGolden's 60 seeded batches: every fifteenth
// at δ = −1 (the registry's bad request) and the one after it at δ = 0
// (helios and eclipse refuse it).
func goldenCorpus() []algo.Request {
	rng := rand.New(rand.NewSource(3434))
	corpus := make([]algo.Request, 60)
	for i := range corpus {
		corpus[i] = goldenBatch(rng)
		switch i % 15 {
		case 0:
			corpus[i].Delta = -1
		case 1:
			corpus[i].Delta = 0
		}
	}
	return corpus
}

// goldenCores is batch i of the corpus as entry name runs it: kcore at
// Cores 1–3 by batch, everything else on one core.
func goldenCores(name string, i int, req algo.Request) algo.Request {
	req.Cores = 0
	if name == algo.NameKCore {
		req.Cores = 1 + i%3
	}
	return req
}

// TestRegistryGolden pins what every registry entry returns over a seeded
// corpus of 60 batches: the SHA-256 of a text dump of its name, description
// and capabilities, then per batch its error text or its CCTs, reconfiguration
// count, flows and circuit schedules. Every fifteenth batch runs at δ = −1
// (the registry's bad request) and the one after it at δ = 0 (helios and
// eclipse refuse it); kcore runs at Cores 1–3 by batch. The digests were
// taken before the registry's adapters were folded into one row type and are
// not to be re-pinned by a change that claims to leave results alone.
func TestRegistryGolden(t *testing.T) {
	want := map[string]string{
		algo.NameEclipse:      "8a1c3732e15b137b94dd842c1d6c5caa13adfc4b3bf866877e8454608ee9fffe",
		algo.NameHelios:       "b4f1e4a2c464fa06627b95fa73947f308e9701ca3aa5dc5d2d6b98037e3ef402",
		algo.NameHybrid:       "d2a3e47526155e75c5d68ee31c907ce836956eb91c8198f720d1c89bbec69452",
		algo.NameHybridFluid:  "931049dc4265867521b28f3c24d95f5ba9eae446f724e367b764ce51b3f16a9e",
		algo.NameKCore:        "132a6ff334e6d5b51a9576653779c700e992c3f75bb1ca54fc75d514aff6dd26",
		algo.NameLPIIGB:       "587d19c6f16157685352fae70411f626a8cec233aefadcf9657d9d6ba6822608",
		algo.NameLPIIGBGroup:  "1f59b60340c857ecd34d1f7c2eca99c73d24d96d0db7b3ca004dbedf9c4f1687",
		algo.NameRecoMul:      "88361c14641c7a311dc20bee9ffb82b1c83f11b6d2560f9b46da1cc15902ff71",
		algo.NameRecoSin:      "59859d65d714f3527ab30d39c7e6029806d143a2cdb7f2311528421c3821e31f",
		algo.NameRecoSparse:   "db1bd55903de391b114acb1c21978f4af17bb92ee513ca4f6a2eb9fa625a5638",
		algo.NameSEBFSolstice: "4632a3dccec7ed45e945202cfe84bc419e8cd26e22769116330796aace88089e",
		algo.NameSolstice:     "003a5c518c7cd6261a42e3fbaa8dc6106e7fd8a1d4b58b675afd0afc9d106e00",
		algo.NameSunflow:      "25dabf2e75d63bcc0bb53aef2b3ba9801d7d49f53a3ee7705b14cbd93ce9e62f",
		algo.NameTMSBvN:       "5f21d7a860bed7734d28673700622643121fb96e9418ba0525817e47875157dd",
	}
	corpus := goldenCorpus()
	for name, hexWant := range want {
		s := algo.MustGet(name)
		h := sha256.New()
		fmt.Fprintf(h, "%s\n%s\n%+v\n", s.Name(), s.Describe(), s.Caps())
		for i, req := range corpus {
			req = goldenCores(name, i, req)
			res, err := s.Schedule(context.Background(), req)
			if err != nil {
				fmt.Fprintf(h, "%d error %s\n", i, err)
				continue
			}
			fmt.Fprintf(h, "%d %v %d %v %v\n", i, res.CCTs, res.Reconfigs, res.Flows, res.Schedules)
		}
		if hexGot := hex.EncodeToString(h.Sum(nil)); hexGot != hexWant {
			t.Errorf("%s: digest %s, want %s", name, hexGot, hexWant)
		}
	}
}

// honoursNoFlows lists the entries that build no flow list for a request
// that sets NoFlows, as algo.Request.NoFlows documents. Reco-Mul and
// Sunflow compute their CCTs from their flows, and the two hybrids build
// none either way.
var honoursNoFlows = map[string]bool{
	algo.NameRecoSin: true, algo.NameSolstice: true, algo.NameSEBFSolstice: true, algo.NameTMSBvN: true,
	algo.NameHelios: true, algo.NameEclipse: true, algo.NameRecoSparse: true,
	algo.NameLPIIGB: true, algo.NameLPIIGBGroup: true, algo.NameKCore: true,
}

// TestNoFlowsDropsOnlyFlows: over TestRegistryGolden's corpus, a request
// that sets NoFlows gets, from every registry entry, the result the same
// request without it gets — CCTs, reconfigurations, circuit schedules and
// error text never move. The entries in honoursNoFlows leave Flows nil;
// the others return the same flows as without NoFlows.
func TestNoFlowsDropsOnlyFlows(t *testing.T) {
	for i, req := range goldenCorpus() {
		for _, s := range algo.All() {
			req := goldenCores(s.Name(), i, req)
			req.NoFlows = false
			want, wantErr := s.Schedule(context.Background(), req)
			req.NoFlows = true
			got, err := s.Schedule(context.Background(), req)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("batch %d %s: error %v with NoFlows, %v without", i, s.Name(), err, wantErr)
			}
			if err != nil {
				continue
			}
			if honoursNoFlows[s.Name()] {
				if got.Flows != nil {
					t.Errorf("batch %d %s: built %d flows for a NoFlows request", i, s.Name(), len(got.Flows))
				}
				want.Flows = nil
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("batch %d %s: NoFlows changed more than the flow list", i, s.Name())
			}
		}
	}
}
