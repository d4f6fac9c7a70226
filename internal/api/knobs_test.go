package api

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"reco/internal/algo"
	"reco/internal/obs"
	"reco/internal/plancache"
)

// knobValue returns Knobs with only kn set, to v (truncated for an int
// knob).
func knobValue(kn *algo.Knob, v float64) algo.Knobs {
	if kn.Float {
		return kn.SetFloat(algo.Knobs{}, v)
	}
	return kn.SetInt(algo.Knobs{}, int(v))
}

// setValue is the smallest value that sets kn.
func setValue(kn *algo.Knob) algo.Knobs { return knobValue(kn, min(kn.Unset+1, kn.Max)) }

// capableAlgorithm returns a registered algorithm that accepts k.
func capableAlgorithm(t *testing.T, k algo.Knobs) string {
	t.Helper()
	for _, s := range algo.All() {
		if algo.CheckKnobs(s, k) == nil {
			return s.Name()
		}
	}
	t.Fatalf("no registered algorithm accepts %+v", k)
	return ""
}

// TestKnobTableWired iterates algo.KnobTable and proves, per row, that
// every surface of the API is wired to it — so a new row needs no edit
// here, in the parser, the server or the plan cache. A request setting
// the knob decodes on the fast path to what the reference decoder gives,
// on all three endpoints; out of range is a 400; set without the
// capability is a 400 naming knob, value, algorithm and capability;
// /v1/algorithms reports the capability under the row's tag.
func TestKnobTableWired(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Attach(&obs.Sink{Metrics: reg})
	defer obs.Detach()
	srv, client := newTestServer(t)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/algorithms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listing struct {
		Algorithms []struct {
			Name         string          `json:"name"`
			Capabilities map[string]bool `json:"capabilities"`
		} `json:"algorithms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatalf("/v1/algorithms: %v", err)
	}

	for i := range algo.KnobTable {
		kn := &algo.KnobTable[i]
		set := setValue(kn)
		alg := capableAlgorithm(t, set)

		single := SingleRequest{Demand: jobDemand, Delta: 100, Algorithm: alg, Knobs: set}
		multi := MultiRequest{Demands: [][][]int64{jobDemand, jobDemand}, Delta: 100, C: 4, Algorithm: alg, Knobs: set}
		singleBody, _ := json.Marshal(single)
		multiBody, _ := json.Marshal(multi)
		jobBody, _ := json.Marshal(JobRequest{Kind: "multi", Multi: &multi})
		if !strings.Contains(string(singleBody), `"`+kn.Key+`":`) {
			t.Fatalf("%s: json.Marshal writes no such key: %s", kn.Key, singleBody)
		}
		gotS, errS := decodeSingle(singleBody)
		wantS, _ := refSingle(singleBody)
		gotM, errM := decodeMulti(multiBody)
		wantM, _ := refMulti(multiBody)
		_, gotJ, errJ := decodeJob(jobBody)
		_, wantJ, _ := refJob(jobBody)
		if errS != nil || errM != nil || errJ != nil {
			t.Fatalf("%s: decode: %v, %v, %v", kn.Key, errS, errM, errJ)
		}
		if diffDecoded(gotS, wantS) != "" || diffDecoded(gotM, wantM) != "" || diffDecoded(gotJ, wantJ) != "" {
			t.Errorf("%s: fast and reference decoders disagree", kn.Key)
		}
		if gotS.req.Knobs != set {
			t.Errorf("%s: decoded knobs %+v, want %+v", kn.Key, gotS.req.Knobs, set)
		}
		if n := fallbacks(reg); n != 0 {
			t.Errorf("%s: %d requests left the fast parser, want 0 (no arm for the key?)", kn.Key, n)
		}
		if _, err := client.ScheduleSingle(context.Background(), single); err != nil {
			t.Errorf("%s %s on %s: %v", kn.Key, kn.Format(set), alg, err)
		}

		// Bad values: just outside the range on both sides, and in range
		// but set for an algorithm without the capability.
		for _, v := range []float64{kn.Min - 1, kn.Max + 1} {
			bad := single
			bad.Knobs = knobValue(kn, v)
			body, _ := json.Marshal(bad)
			status, resp := postRaw(t, srv.URL+"/v1/schedule/single", body)
			if status != http.StatusBadRequest || !strings.Contains(string(resp), kn.Range()) {
				t.Errorf("%s %s: status %d (%s), want a 400 naming %s", kn.Key, kn.Format(bad.Knobs), status, resp, kn.Range())
			}
		}
		gated := single
		gated.Algorithm = algo.NameRecoSin
		body, _ := json.Marshal(gated)
		status, resp := postRaw(t, srv.URL+"/v1/schedule/single", body)
		want := fmt.Sprintf("%s %s: algorithm %s has no %s capability", kn.Key, kn.Format(set), algo.NameRecoSin, kn.Cap)
		if status != http.StatusBadRequest || !strings.Contains(string(resp), want) {
			t.Errorf("%s on reco-sin: status %d (%s), want a 400 saying %q", kn.Key, status, resp, want)
		}
		// Everything up to Unset needs no capability.
		gated.Knobs = knobValue(kn, kn.Unset)
		if _, err := client.ScheduleSingle(context.Background(), gated); err != nil {
			t.Errorf("%s %s (unset) on reco-sin: %v", kn.Key, kn.Format(gated.Knobs), err)
		}

		// The capability is listed under the row's tag.
		for _, a := range listing.Algorithms {
			if has, listed := a.Capabilities[kn.Cap]; !listed || has != (algo.CheckKnobs(algo.MustGet(a.Name), set) == nil) {
				t.Errorf("/v1/algorithms: %s reports %s=%v (listed %v)", a.Name, kn.Cap, has, listed)
			}
		}
	}
}

// TestKnobsCostNoAllocation: decoding a knob-bearing request, gating it and
// fingerprinting it allocates what it did when each knob was a hand-written
// parser arm, three ifs and a fingerprint line (7: the decoded matrix, its
// cells and one-element slice, the algorithm name, and the hash state, sum
// and hex key) — consulting the table is free.
func TestKnobsCostNoAllocation(t *testing.T) {
	for i := range algo.KnobTable {
		kn := &algo.KnobTable[i]
		set := setValue(kn)
		body, _ := json.Marshal(SingleRequest{Demand: [][]int64{{0, 400}, {400, 0}}, Delta: 100, Algorithm: capableAlgorithm(t, set), Knobs: set})
		// Two collections empty the matrix pool that earlier tests left
		// slabs in, so every decode below pays for its matrix; the loop
		// recycles none.
		runtime.GC()
		runtime.GC()
		allocs := testing.AllocsPerRun(200, func() {
			d, err := decodeSingle(body)
			if err != nil {
				t.Fatal(err)
			}
			sched, err := algo.Get(d.name)
			if err != nil {
				t.Fatal(err)
			}
			if err := algo.CheckKnobs(sched, d.req.Knobs); err != nil {
				t.Fatal(err)
			}
			if plancache.Fingerprint(d.name, d.req) == "" {
				t.Fatal("empty fingerprint")
			}
		})
		if allocs != 7 {
			t.Errorf("%s: decode + CheckKnobs + Fingerprint = %v allocs, want 7", kn.Key, allocs)
		}
	}
}

// TestTermBoundBeyondSupport: k is a bound, not a reservation. The top of
// its range on a four-cell demand answers exactly what k = 4 answers (a
// decomposition has at most one term per cell); bvn's
// TestDecomposeKReservesBySupport holds the allocation side.
func TestTermBoundBeyondSupport(t *testing.T) {
	srv, _ := newTestServer(t)
	post := func(k int) SingleResponse {
		t.Helper()
		body := fmt.Sprintf(`{"algorithm":"reco-sparse","k":%d,"delta":1,"demand":[[3,1],[1,3]]}`, k)
		resp, err := http.Post(srv.URL+"/v1/schedule/single", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("k=%d: status %d, want 200", k, resp.StatusCode)
		}
		var out SingleResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		return out
	}
	want, got := post(4), post(algo.MaxTerms)
	if len(want.Schedule) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("k=%d answered %+v, k=4 answered %+v", algo.MaxTerms, got, want)
	}
}
