package api

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"reco/internal/algo"
)

// TestSingleResponseGolden pins every byte POST /v1/schedule/single answers
// for each registry entry over a seeded corpus of 40 coflows: n 2–14 ports,
// density 0.05–0.9, cells 1–5000, δ 0–299 (every tenth request at δ = 0,
// which helios and eclipse refuse), every seventh coflow a single-port one
// and the last an all-zero matrix. The digest is the SHA-256 of each
// response's status line and body in order. The digests were taken before
// the single endpoint stopped building flow lists it never emits and are not
// to be re-pinned by a change that claims to leave responses alone.
func TestSingleResponseGolden(t *testing.T) {
	want := map[string]string{
		algo.NameEclipse:      "7fad62e7586bcafa4151a569e3eba4dc2ed56deebd7517a00f84677e7d3e1075",
		algo.NameHelios:       "f227aa480935b3afeb6fd510ee1bc712b5b03a76e29a7a4f265d625ebfacd35c",
		algo.NameHybrid:       "accefc749ea5507683d7235a5cb52f7d3dc0fdcb1b6c589c5b7d749c3f3dcaa6",
		algo.NameHybridFluid:  "55dbecd4e05e7e8831601f0c52501c242c30d45c701a9e5db44172d776f3e0de",
		algo.NameKCore:        "58dba91162eddb3e4fe06be5d84e28d3f730a181e63fc183a3a67d19fb78b814",
		algo.NameLPIIGB:       "5e678a5be922dc9b96f40a893883a63c83727367f93fabbbda7ade6082a9df3e",
		algo.NameLPIIGBGroup:  "5e678a5be922dc9b96f40a893883a63c83727367f93fabbbda7ade6082a9df3e",
		algo.NameRecoMul:      "87e3199a36a55f21d00a43e587b14606eed636a00ac267a9285e83d8e969c81f",
		algo.NameRecoSin:      "f8be69232c407229ed7aa4b93a721c2eb4646a527ceb9d1da97eabe535ac7161",
		algo.NameRecoSparse:   "9af5a90c633405e02f2bf472c373036db0e9ec933b932e07a087d8a756c7148e",
		algo.NameSEBFSolstice: "ba4dce4194f1563aeb03167a037a13e684bb4e3758d263115ab1f034d6405e99",
		algo.NameSolstice:     "ba4dce4194f1563aeb03167a037a13e684bb4e3758d263115ab1f034d6405e99",
		algo.NameSunflow:      "e89d5617090ae36bcf431f21858bc759f8ddceeea0792baf388e7e303f1fb183",
		algo.NameTMSBvN:       "0cd9f69836f65c93be50e0811555ff58afbf0153b925a7cf19004a6fe0e9e7d8",
	}
	rng := rand.New(rand.NewSource(3535))
	corpus := make([]SingleRequest, 40)
	for k := range corpus {
		n := 2 + rng.Intn(13)
		density := 0.05 + 0.85*rng.Float64()
		rows := make([][]int64, n)
		for i := range rows {
			rows[i] = make([]int64, n)
			for j := range rows[i] {
				if rng.Float64() < density {
					rows[i][j] = 1 + rng.Int63n(5000)
				}
			}
		}
		switch {
		case k == len(corpus)-1:
			for i := range rows {
				clear(rows[i])
			}
		case k%7 == 3: // one sender: a single-port coflow
			for i := 1; i < n; i++ {
				clear(rows[i])
			}
			rows[0][0] = 1 + rng.Int63n(5000)
		}
		corpus[k] = SingleRequest{Demand: rows, Delta: rng.Int63n(300)}
		if k%10 == 5 {
			corpus[k].Delta = 0
		}
	}

	srv := NewServer(Options{})
	defer srv.Close()
	h := srv.Handler()
	for name, hexWant := range want {
		sum := sha256.New()
		for _, req := range corpus {
			req.Algorithm = name
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule/single", bytes.NewReader(body)))
			fmt.Fprintf(sum, "%d %s", rec.Code, rec.Body.Bytes())
		}
		if hexGot := hex.EncodeToString(sum.Sum(nil)); hexGot != hexWant {
			t.Errorf("%s: digest %s, want %s", name, hexGot, hexWant)
		}
	}
}
