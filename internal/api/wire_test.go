package api

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"reco/internal/algo"
	"reco/internal/matrix"
	"reco/internal/obs"
	"reco/internal/ocs"
	"reco/internal/schedule"
)

// fallbacks reads the three api_decode_fallback_total series.
func fallbacks(reg *obs.Registry) (n int64) {
	for _, e := range []string{"single", "multi", "job"} {
		n += reg.Counter(obs.L("api_decode_fallback_total", "endpoint", e)).Value()
	}
	return n
}

// TestClientTrafficStaysOnFastPath sends one request of every kind
// api.Client, recoctl and recoload's generators can build — single, multi
// and job, with and without each optional field — through a real server
// and asserts none of them left the fast decoder: the counter verifies
// the traffic the fast path was written for instead of guessing it.
func TestClientTrafficStaysOnFastPath(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Attach(&obs.Sink{Metrics: reg})
	defer obs.Detach()
	_, client := newJobTestServer(t, Options{})
	ctx := context.Background()

	singles := []SingleRequest{
		{Demand: jobDemand, Delta: 100},
		{Demand: jobDemand, Delta: 100, Algorithm: algo.NameRecoSin},
		{Demand: jobDemand, Delta: 100, Algorithm: algo.NameSolstice, DeadlineMS: 60_000, Weight: 8},
		{Demand: jobDemand, Delta: 100, Weight: 0.5},
		{Demand: jobDemand, Delta: 100, Algorithm: algo.NameKCore, Knobs: algo.Knobs{Cores: 2}},
		{Demand: jobDemand, Delta: 100, Algorithm: algo.NameRecoSparse, Knobs: algo.Knobs{K: 2}},
		{Demand: jobDemand, Delta: 100, Algorithm: algo.NameHybridFluid, Knobs: algo.Knobs{ElecFrac: 0.25}},
		{Demand: [][]int64{{7}}, Delta: 0},
	}
	for i, req := range singles {
		if _, err := client.ScheduleSingle(ctx, req); err != nil {
			t.Errorf("single %d: %v", i, err)
		}
	}
	batch := [][][]int64{jobDemand, jobDemand}
	multis := []MultiRequest{
		{Demands: batch, Delta: 100, C: 4},
		{Demands: batch, Delta: 100, C: 4, Algorithm: algo.NameRecoMul, Weights: []float64{1, 2.5}},
		{Demands: batch, Delta: 100, C: 4, Algorithm: algo.NameSEBFSolstice, DeadlineMS: 60_000, Weight: 4},
		{Demands: batch, Delta: 100, C: 4, Algorithm: algo.NameKCore, Knobs: algo.Knobs{Cores: 2}},
		{Demands: batch, Delta: 100, C: 4, Algorithm: algo.NameRecoSparse, Knobs: algo.Knobs{K: 2}},
		{Demands: batch, Delta: 100, C: 4, Algorithm: algo.NameHybridFluid, Knobs: algo.Knobs{ElecFrac: 1e-3}},
	}
	for i, req := range multis {
		if _, err := client.ScheduleMulti(ctx, req); err != nil {
			t.Errorf("multi %d: %v", i, err)
		}
	}
	jobs := []JobRequest{
		{Kind: "single", Single: &singles[0]},
		{Kind: "single", Single: &singles[2]},
		{Kind: "single", Single: &singles[6]},
		{Kind: "multi", Multi: &multis[1]},
		{Kind: "multi", Multi: &multis[2]},
	}
	for i, req := range jobs {
		if _, err := client.SubmitJob(ctx, req); err != nil {
			t.Errorf("job %d: %v", i, err)
		}
	}
	if n := fallbacks(reg); n != 0 {
		t.Errorf("%d client-built requests fell back to encoding/json, want 0", n)
	}

	// The counter does count: a body only the reference decoder reads.
	status, body := postRaw(t, client.base+"/v1/schedule/single", []byte(`{"Demand":[[0,4],[4,0]],"delta":100}`))
	if status != http.StatusOK {
		t.Fatalf("lenient body: status %d (%s)", status, body)
	}
	if n := fallbacks(reg); n != 1 {
		t.Errorf("fallback counter = %d after one lenient body, want 1", n)
	}
}

// TestFallbackOwnsLenientAndBadInput lists what the fast parser must hand
// back — each body is accepted or rejected by the reference decoder alone,
// so every 400 keeps the message it had before the fast path existed.
func TestFallbackOwnsLenientAndBadInput(t *testing.T) {
	bodies := []string{
		`{"demand":[[0,5],[5,0]],"delta":10,"algorithm":"reco\u002dsin"}`, // string escape
		`{"demand":[[0,5],[5,0]],"delta":10,"algorithm":"réco"}`,          // non-ASCII
		`{"demand":[[0,5],[5,0]],"delta":10,"algorithm":null}`,
		`{"demand":null,"delta":10}`,
		`{"demand":[[0,5.0],[5,0]],"delta":10}`,
		`{"demand":[[0,5e0],[5,0]],"delta":10}`,
		`{"demand":[[0,5],[5,0]],"delta":1.5}`,
		`{"Demand":[[0,5],[5,0]],"delta":10}`,                    // case-variant key
		`{"demand":[[0,5],[5,0]],"delta":10,"delta":20}`,         // duplicate key
		`{"demand":[[0,5],[5,0]],"demand":[[0,1],[1,0]]}`,        // duplicate matrix
		`{"demand":[[0,5],[5,0]],"delta":10,"bogus":1}`,          // unknown key
		`{"demand":[[0,5],[5,0]],"delta":10,"c":4}`,              // multi-only key
		`{"demand":[[0,5],[5,0]],"delta":10} {"x":1}`,            // trailing value
		`{"demand":[[0,5],[5,0]],"delta":10}x`,                   // trailing bytes
		`{"demand":[[0,9223372036854775808],[5,0]],"delta":10}`,  // > int64
		`{"demand":[[0,99999999999999999999],[5,0]],"delta":10}`, // 20 digits
		`{"demand":[[0,-5],[5,0]],"delta":10}`,                   // negative
		`{"demand":[[0,-0],[5,0]],"delta":10}`,                   // accepted leniently
		`{"demand":[[0,05],[5,0]],"delta":10}`,                   // leading zero
		`{"demand":[[1,2,3]],"delta":10}`,                        // non-square
		`{"demand":[[1,2],[3]],"delta":10}`,                      // ragged
		`{"demand":[[1,2],[3,4],[5,6]],"delta":10}`,              // too many rows
		`{"demand":[],"delta":10}`,                               // empty
		`{"demand":[[]],"delta":10}`,                             // empty row
		`{"delta":10}`,                                           // missing demand
		`{}`,                                                     // empty object
		`{"demand":[[0,5],[5,0]],"delta":10,"cores":99999999999999999999}`,
		`{"demand":[[0,5],[5,0]],"delta":10,"weight":1e999}`,
		`{"demand":[[0,5],[5,0]],"delta":10,"weight":01}`,
		`[[0,5],[5,0]]`,
		``,
	}
	for _, body := range bodies {
		p := parser{b: []byte(body)}
		if d, ok := p.request(false); ok && p.end() {
			t.Errorf("fast parser accepted %s as %+v", body, d)
		}
		got, gotErr := decodeSingle([]byte(body))
		want, wantErr := refSingle([]byte(body))
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Errorf("%s: error %v, reference says %v", body, gotErr, wantErr)
		}
		if diff := diffDecoded(got, want); diff != "" {
			t.Errorf("%s: %s: decoded %+v, reference says %+v", body, diff, got, want)
		}
	}

	// The same split on the other two decoders.
	for _, body := range []string{
		`{"demands":[],"delta":10,"c":4}`,
		`{"demands":[[[0,5],[5,0]]],"weights":[],"delta":10,"c":4}`,
		`{"demands":[[[0,5],[5,0]]],"weights":[1,null],"delta":10,"c":4}`,
		`{"demands":[[[0,5],[5,0]]],"demand":[[0,5],[5,0]],"delta":10}`,
	} {
		p := parser{b: []byte(body)}
		if d, ok := p.request(true); ok && p.end() {
			t.Errorf("fast parser accepted multi %s as %+v", body, d)
		}
	}
	for _, body := range []string{
		`{"kind":"bogus"}`,
		`{"kind":"single"}`,
		`{"kind":"single","multi":{"demands":[[[0,5],[5,0]]],"delta":10,"c":4}}`,
		`{"kind":"single","single":null}`,
		`{"kind":"single","kind":"multi","single":{"demand":[[0,5],[5,0]],"delta":10}}`,
		`{"kind":"single","single":{"demand":[[0,5],[5,0]],"delta":10},"extra":1}`,
	} {
		p := parser{b: []byte(body)}
		if kind, d, ok := p.job(); ok && p.end() {
			t.Errorf("fast parser accepted job %s as %s %+v", body, kind, d)
		}
	}
}

// TestFastPathReadsCanonicalVariants covers what the fast parser accepts
// beyond json.Marshal's exact bytes: any key order and JSON whitespace.
func TestFastPathReadsCanonicalVariants(t *testing.T) {
	want, err := refSingle([]byte(`{"demand":[[0,5],[7,0]],"delta":10,"algorithm":"solstice","deadline_ms":5,"weight":2.5,"cores":1,"k":0,"elec_frac":0}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{
		`{"demand":[[0,5],[7,0]],"delta":10,"algorithm":"solstice","deadline_ms":5,"weight":2.5,"cores":1,"k":0,"elec_frac":0}`,
		`{"elec_frac":0,"k":0,"cores":1,"weight":2.5,"deadline_ms":5,"algorithm":"solstice","delta":10,"demand":[[0,5],[7,0]]}`,
		"{\n  \"demand\": [\n    [0, 5],\n    [7, 0]\n  ],\n  \"delta\": 10,\r\n\t\"algorithm\": \"solstice\", \"deadline_ms\": 5, \"weight\": 25e-1, \"cores\": 1, \"k\": -0, \"elec_frac\": 0.0\n}\n",
	} {
		p := parser{b: []byte(body)}
		got, ok := p.request(false)
		if !ok || !p.end() {
			t.Errorf("fast parser gave up on %q", body)
			continue
		}
		if diff := diffDecoded(got, want); diff != "" {
			t.Errorf("%q: %s: decoded %+v, want %+v", body, diff, got, want)
		}
	}
}

// TestDecodeAllocationGuard: a first row of length n must not buy n²
// cells unless the body is long enough to be square. A 2 MB body of one
// million-entry row would otherwise ask for 8 TB; the fast parser must
// turn it down having allocated nothing, and the reference decoder then
// rejects it as non-square.
func TestDecodeAllocationGuard(t *testing.T) {
	const n = 1 << 20
	body := []byte(`{"demand":[[` + strings.Repeat("0,", n-1) + `0]],"delta":1}`)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p := parser{b: body}
	_, ok := p.request(false)
	runtime.ReadMemStats(&after)
	if ok {
		t.Fatal("fast parser accepted a one-row matrix")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
		t.Errorf("fast parser allocated %d bytes before giving up on a %d-byte body", grew, len(body))
	}
	if _, err := decodeSingle(body); err == nil || !strings.Contains(err.Error(), "row 0 has") {
		t.Errorf("one-row body: error %v, want the reference decoder's non-square message", err)
	}

	// Whitespace padding can make a non-square body long enough to pass the
	// guard; what it then allocates stays within 4 bytes per body byte for
	// the cells, plus 16 per port for the summary's column accumulators.
	padded := []byte(`{"demand":[[` + strings.Repeat("0,", 999) + `0]` + strings.Repeat(" ", 2_000_000) + `],"delta":1}`)
	runtime.ReadMemStats(&before)
	p = parser{b: padded}
	_, ok = p.request(false)
	runtime.ReadMemStats(&after)
	if ok {
		t.Fatal("fast parser accepted a padded one-row matrix")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*uint64(len(padded))+16*1000 {
		t.Errorf("fast parser allocated %d bytes on a %d-byte body", grew, len(padded))
	}
}

// unsizedBody hides a reader's length from net/http, so the request goes
// out (or is handed to the handler) without a Content-Length.
type unsizedBody struct{ io.Reader }

// TestBodyCapWithAndWithoutContentLength: the cap answers with the same
// structured 413 whether the client declared the length or streamed the
// body, and a declared oversize is refused before the body is read.
func TestBodyCapWithAndWithoutContentLength(t *testing.T) {
	s := NewServer(Options{MaxBodyBytes: 64, NoCache: true})
	defer s.Close()
	h := s.Handler()
	big := []byte(`{"demand":[[0,400,0,0],[400,0,0,0],[0,0,0,1000],[0,0,1000,0]],"delta":100}`)
	small := []byte(`{"demand":[[0,400],[400,0]],"delta":100}`)

	check413 := func(name string, req *http.Request) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var apiErr errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &apiErr); err != nil {
			t.Fatalf("%s: body %q is not the error envelope: %v", name, rec.Body.Bytes(), err)
		}
		if rec.Code != http.StatusRequestEntityTooLarge || apiErr.Error != "request body exceeds 64 bytes" {
			t.Errorf("%s: %d %q, want 413 naming the 64-byte limit", name, rec.Code, apiErr.Error)
		}
	}
	for _, path := range fuzzPaths {
		sized := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(big))
		check413(path+" sized", sized)

		streamed := httptest.NewRequest(http.MethodPost, path, unsizedBody{bytes.NewReader(big)})
		if streamed.ContentLength != -1 {
			t.Fatalf("streamed request has Content-Length %d", streamed.ContentLength)
		}
		check413(path+" streamed", streamed)

		unread := httptest.NewRequest(http.MethodPost, path, unsizedBody{failingReader{t}})
		unread.ContentLength = int64(len(big))
		check413(path+" declared", unread)
	}

	for _, body := range []io.Reader{bytes.NewReader(small), unsizedBody{bytes.NewReader(small)}} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule/single", body))
		if rec.Code != http.StatusOK {
			t.Errorf("body under the cap: status %d (%s)", rec.Code, rec.Body.Bytes())
		}
	}
}

// failingReader fails the test if the handler reads the body at all.
type failingReader struct{ t *testing.T }

func (r failingReader) Read([]byte) (int, error) {
	r.t.Error("handler read a body whose Content-Length already exceeded the cap")
	return 0, io.EOF
}

// TestEncodersMatchEncodingJSON holds the append encoders to the bytes
// json.Encoder writes for the wire structs, for the real output of every
// registry algorithm on both endpoints and for the shapes no scheduler
// happens to produce (nil permutation, nil CCTs, nil flows, a gap).
func TestEncodersMatchEncodingJSON(t *testing.T) {
	ensureTestBlock()
	d, err := matrix.FromRows(jobDemand)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, req algo.Request, res *algo.Result) {
		t.Helper()
		if got, want := appendSingle(nil, req, res), jsonLine(t, renderSingle(req, res)); !bytes.Equal(got, want) {
			t.Errorf("%s single:\n got %s\nwant %s", name, got, want)
		}
		if got, want := appendMulti(nil, res), jsonLine(t, renderMulti(res)); !bytes.Equal(got, want) {
			t.Errorf("%s multi:\n got %s\nwant %s", name, got, want)
		}
	}

	for _, s := range algo.All() {
		if strings.HasPrefix(s.Name(), "test-") {
			continue
		}
		for _, demands := range [][]*matrix.Matrix{{d}, {d, d}} {
			req := algo.Request{Demands: demands, Delta: 100, C: defaultC}
			res, err := s.Schedule(context.Background(), req)
			if err != nil {
				t.Fatalf("%s on %d coflows: %v", s.Name(), len(demands), err)
			}
			check(s.Name(), req, res)
		}
	}

	req := algo.Request{Demands: []*matrix.Matrix{d}, Delta: 100}
	check("nil perm", req, &algo.Result{
		CCTs:      []int64{7},
		Schedules: []ocs.CircuitSchedule{{{Perm: nil, Dur: 3}, {Perm: []int{}, Dur: 0}, {Perm: []int{2, -1, 0}, Dur: -9}}},
	})
	check("no schedule", req, &algo.Result{CCTs: []int64{0}, Reconfigs: -1})
	check("two schedules", req, &algo.Result{CCTs: []int64{1, 2}, Schedules: make([]ocs.CircuitSchedule, 2)})
	check("gaps", req, &algo.Result{
		CCTs: []int64{9223372036854775807},
		Flows: schedule.FlowSchedule{
			{Start: 0, End: 10, Gap: 0, In: 0, Out: 1, Coflow: 0},
			{Start: 10, End: 30, Gap: 5, In: 2, Out: 0, Coflow: 1},
			{Start: -1, End: -1, Gap: -1, In: -1, Out: -1, Coflow: -1},
		},
	})
	// Ports and coflows past smallInts' −1 … 1023 go through strconv, and
	// a wide one eats into the room reserved for the next store.
	check("wide ints", req, &algo.Result{
		CCTs: []int64{1},
		Flows: schedule.FlowSchedule{
			{Start: 0, End: 1, In: 1023, Out: 1024, Coflow: 1023},
			{Start: 1, End: 2, In: -2, Out: 9223372036854775807, Coflow: -9223372036854775808},
			{Start: 2, End: 3, In: 123456789, Out: 0, Coflow: 5},
			{Start: 3, End: 4, In: 7, Out: -1, Coflow: 1000000},
		},
	})
	check("empty ccts", req, &algo.Result{CCTs: []int64{0}, Flows: schedule.FlowSchedule{}})
	// renderSingle reads CCTs[0], so nil CCTs exist on the batch wire only.
	res := &algo.Result{Reconfigs: 3}
	if got, want := appendMulti(nil, res), jsonLine(t, renderMulti(res)); !bytes.Equal(got, want) {
		t.Errorf("nil ccts multi:\n got %s\nwant %s", got, want)
	}
}

// jsonLine is what json.Encoder writes for v: the bytes the append
// encoders are held to.
func jsonLine(tb testing.TB, v any) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestEncodersAllocateNothingWithRoom: into a buffer that already has room
// for the response, neither encoder allocates — not for the table entries,
// not for the strconv ones outside the table's range.
func TestEncodersAllocateNothingWithRoom(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	// A parsed demand, as in the handler: its summary makes lowerBound a
	// field read, where a FromRows matrix's column scan allocates.
	dec, err := decodeSingle([]byte(`{"demand":[[104,109,102],[103,105,107],[108,101,106]],"delta":100}`))
	if err != nil {
		t.Fatal(err)
	}
	req := dec.req
	res := &algo.Result{CCTs: []int64{1 << 40, 7}, Reconfigs: 180, Schedules: make([]ocs.CircuitSchedule, 1)}
	for _, n := range []int{64, 64, 64, 1100, 5} {
		a := ocs.Assignment{Perm: rng.Perm(n), Dur: rng.Int63()}
		for i := range a.Perm {
			if rng.Intn(4) == 0 {
				a.Perm[i] = -1
			}
		}
		res.Schedules[0] = append(res.Schedules[0], a)
	}
	res.Schedules[0][4].Perm[2] = 1 << 20
	for i := 0; i < 200; i++ {
		res.Flows = append(res.Flows, schedule.FlowInterval{
			Start: rng.Int63(), End: rng.Int63(), Gap: rng.Int63n(2), In: rng.Intn(1100), Out: rng.Intn(1100), Coflow: rng.Intn(3000) - 1,
		})
	}

	buf := make([]byte, 0, 1<<16)
	if n := testing.AllocsPerRun(50, func() { buf = appendSingle(buf[:0], req, res) }); n != 0 {
		t.Errorf("appendSingle: %v allocations per response", n)
	}
	if n := testing.AllocsPerRun(50, func() { buf = appendMulti(buf[:0], res) }); n != 0 {
		t.Errorf("appendMulti: %v allocations per response", n)
	}
}

// TestNonRepresentableDemandIs400: demand whose completion bound
// 2·(ρ + n·δ) does not fit int64 used to wrap — a 200 with an empty
// schedule and cct 0, or a 500 "unserved demand: -2 ticks left". It is a
// 400 from algo.ValidateRequest now; the largest demand under the edge
// still gets a real schedule.
func TestNonRepresentableDemandIs400(t *testing.T) {
	srv, _ := newTestServer(t)
	cases := []struct {
		body string
		want int
	}{
		{`{"demand":[[4611686018427387904,4611686018427387904],[4611686018427387904,4611686018427387904]],"delta":100}`, http.StatusBadRequest},
		{`{"demand":[[0,9223372036854775807],[9223372036854775807,0]],"delta":100}`, http.StatusBadRequest},
		{`{"demand":[[0,4611686018427387704],[4611686018427387704,0]],"delta":100}`, http.StatusBadRequest},
		{`{"demand":[[0,4611686018427387703],[4611686018427387703,0]],"delta":100}`, http.StatusOK},
		{`{"demand":[[2305843009213693751,2305843009213693752],[2305843009213693752,2305843009213693751]],"delta":100}`, http.StatusOK},
	}
	for _, tc := range cases {
		status, body := postRaw(t, srv.URL+"/v1/schedule/single", []byte(tc.body))
		if status != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.body, status, tc.want, body)
			continue
		}
		if status == http.StatusBadRequest {
			if !strings.Contains(string(body), "overflows int64") {
				t.Errorf("%s: 400 does not name the overflow: %s", tc.body, body)
			}
			continue
		}
		var resp SingleResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.CCT < resp.LowerBound || resp.LowerBound < 1<<62-1000 || len(resp.Schedule) == 0 {
			t.Errorf("%s: cct %d, lower bound %d, %d assignments", tc.body, resp.CCT, resp.LowerBound, len(resp.Schedule))
		}
	}
}

// TestOverflowingDemandIs400OnBothDecodePaths: the fast parser's summary
// carries an overflow flag in place of the row and column scan
// algo.ValidateRequest used to make, and the refusal must not depend on
// which decoder built the matrix. A row of two MaxInt64 cells wraps ρ; the
// body goes through the fast parser as written and through encoding/json
// with one key escaped, and both get the same structured 400.
func TestOverflowingDemandIs400OnBothDecodePaths(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Attach(&obs.Sink{Metrics: reg})
	defer obs.Detach()
	srv, _ := newTestServer(t)
	fast := `{"demand":[[9223372036854775807,9223372036854775807],[1,1]],"delta":100}`
	slow := `{"\u0064emand":[[9223372036854775807,9223372036854775807],[1,1]],"delta":100}`

	fastStatus, fastBody := postRaw(t, srv.URL+"/v1/schedule/single", []byte(fast))
	if n := fallbacks(reg); n != 0 {
		t.Fatalf("the plain body left the fast parser (%d fallbacks)", n)
	}
	slowStatus, slowBody := postRaw(t, srv.URL+"/v1/schedule/single", []byte(slow))
	if n := fallbacks(reg); n != 1 {
		t.Fatalf("the escaped key did not force the reference decoder (%d fallbacks)", n)
	}
	if fastStatus != http.StatusBadRequest || slowStatus != http.StatusBadRequest {
		t.Fatalf("statuses: fast %d (%s), reference %d (%s), want 400 from both", fastStatus, fastBody, slowStatus, slowBody)
	}
	if !bytes.Equal(fastBody, slowBody) || !strings.Contains(string(fastBody), "overflows int64") {
		t.Errorf("fast path answered %s, reference path %s; want one message naming the overflow", fastBody, slowBody)
	}
}
