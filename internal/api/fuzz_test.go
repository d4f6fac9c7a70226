package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"reco/internal/algo"
	"reco/internal/matrix"
	"reco/internal/ocs"
	"reco/internal/schedule"
)

// fuzzPaths are the POST endpoints FuzzScheduleRequest drives; the first
// fuzz input byte selects one, so the corpus explores all four decoders.
var fuzzPaths = []string{"/v1/schedule/single", "/v1/schedule/multi", "/v1/jobs", "/v1/workload/generate"}

var (
	fuzzOnce    sync.Once
	fuzzHandler http.Handler
	fuzzServer  *Server
)

// fuzzTarget builds one shared server for the whole fuzz run: tiny body
// cap so mutated payloads stay cheap, one worker and a short queue so the
// admission path is reachable, no cache so every accepted request runs.
func fuzzTarget() http.Handler {
	fuzzOnce.Do(func() {
		fuzzServer = NewServer(Options{
			NoCache: true, MaxBodyBytes: 1 << 16, JobWorkers: 1, JobQueue: 4,
		})
		fuzzHandler = fuzzServer.Handler()
	})
	return fuzzHandler
}

// addRequestSeeds seeds a (decoder selector, body) fuzz target with the
// valid and hostile bodies both fuzz targets start from. New seeds go at
// the end: the seed#N subtest names are part of the test floor.
func addRequestSeeds(f *testing.F) {
	valid := [][]byte{
		[]byte(`{"demand":[[0,5],[5,0]],"delta":10,"algorithm":"reco-sin"}`),
		[]byte(`{"demand":[[0,5],[5,0]],"delta":10,"deadline_ms":1000,"weight":2}`),
		[]byte(`{"demands":[[[0,5],[5,0]],[[0,3],[3,0]]],"delta":10,"c":4,"algorithm":"reco-sin"}`),
		[]byte(`{"kind":"single","single":{"demand":[[0,5],[5,0]],"delta":10,"algorithm":"reco-sin","deadline_ms":500,"weight":1}}`),
	}
	for i, body := range valid {
		f.Add(uint8(i), body)
	}
	f.Add(uint8(0), []byte(`{"demand":[[0,5],[5,0]],"delta":10,"deadline_ms":-1}`))
	f.Add(uint8(0), []byte(`{"demand":[[0,5],[5,0]],"delta":10,"deadline_ms":9223372036854775807}`))
	f.Add(uint8(1), []byte(`{"demands":[],"delta":10,"weight":-3}`))
	f.Add(uint8(2), []byte(`{"kind":"bogus"}`))
	f.Add(uint8(2), []byte(`{"kind":"single"}`))
	f.Add(uint8(0), []byte(`{"demand":[[1,2,3]]}`)) // non-square
	f.Add(uint8(0), []byte(`not json at all`))
	f.Add(uint8(1), []byte(`{"demands":[[[9e99]]]}`))
	f.Add(uint8(2), []byte(strings.Repeat("[", 512)))
	// Demand whose row sums wrap int64: once a 200 with cct 0, and a 500.
	f.Add(uint8(0), []byte(`{"demand":[[4611686018427387904,4611686018427387904],[4611686018427387904,4611686018427387904]],"delta":100}`))
	f.Add(uint8(0), []byte(`{"demand":[[0,9223372036854775807],[9223372036854775807,0]],"delta":100}`))
	// A core count sizing one demand share per core: once an out-of-memory
	// kill on a 64-port matrix, which no recovery middleware catches.
	f.Add(uint8(0), []byte(`{"demand":[[0,5],[5,0]],"delta":10,"algorithm":"kcore","cores":200000}`))
	// A workload sized by the request alone: once an 80 GB allocation.
	f.Add(uint8(3), []byte(`{"n":100000,"numCoflows":1,"seed":1}`))
	// A threshold c whose square root took forever, and a c·δ grid that
	// wrapped to zero and divided by it: a hang and a process kill.
	f.Add(uint8(1), []byte(`{"demands":[[[0,500],[500,0]]],"delta":100,"c":9223372036854775807}`))
	f.Add(uint8(1), []byte(`{"demands":[[[0,500],[500,0]]],"delta":8589934592,"c":4611686018427387904}`))
}

// FuzzScheduleRequest throws arbitrary bodies at the schedule and job
// endpoints and checks the contract that matters under hostile input: no
// panic, a sane status code, and a JSON body that parses — with the error
// envelope populated on every 4xx/5xx.
func FuzzScheduleRequest(f *testing.F) {
	addRequestSeeds(f)

	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		path := fuzzPaths[int(which)%len(fuzzPaths)]
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		fuzzTarget().ServeHTTP(rec, req)

		code := rec.Code
		if code < 200 || code > 599 {
			t.Fatalf("%s: status %d out of range", path, code)
		}
		var payload map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
			t.Fatalf("%s -> %d: non-JSON body %q: %v", path, code, rec.Body.Bytes(), err)
		}
		if code >= 400 {
			msg, ok := payload["error"].(string)
			if !ok || msg == "" {
				t.Fatalf("%s -> %d: error response without error message: %q", path, code, rec.Body.Bytes())
			}
		}
	})
}

// diffDecoded compares a decode against the reference decode of the same
// body and describes the first difference, or returns "". Matrices are
// compared cell for cell, not by DeepEqual: only a fast-parsed matrix
// carries a summary, and the one it carries must equal what the dense scans
// behind the reference matrix's accessors compute.
func diffDecoded(got, want decoded) string {
	gd, wd := got.req.Demands, want.req.Demands
	got.req.Demands, want.req.Demands = nil, nil
	if !reflect.DeepEqual(got, want) || len(gd) != len(wd) {
		return "decoded requests differ outside the matrices"
	}
	for k, g := range gd {
		w := wd[k]
		if !g.Equal(w) {
			return fmt.Sprintf("demand %d differs", k)
		}
		sum, ok := g.Summary()
		if !ok {
			continue
		}
		rho, fits := w.CheckedMaxRowColSum()
		scan := matrix.Summary{
			Rho: rho, Tau: w.MaxRowColNonZeros(), Total: w.Total(),
			NonZeros: w.NonZeros(), MaxEntry: w.MaxEntry(), Overflow: !fits,
		}
		if sum.Overflow {
			sum.Rho = 0 // meaningless once a sum has wrapped
		}
		if sum != scan {
			return fmt.Sprintf("demand %d carries summary %+v, a dense scan gives %+v", k, sum, scan)
		}
	}
	return ""
}

// FuzzDecodeSoundness is the fast parser's contract: whatever it accepts,
// the reference decoder (encoding/json + toAlgo) accepts too and decodes
// to the same algorithm, registry request and SLA pair, and the summary
// each fast-parsed matrix carries is the one a dense scan of the reference
// matrix computes. The converse is not required — giving up is always
// allowed. Each accepted input is decoded a second time into the matrices
// of the first, recycled dirty, and must come out the same.
func FuzzDecodeSoundness(f *testing.F) {
	addRequestSeeds(f)
	// What clients actually send: json.Marshal of the exported structs.
	rng := rand.New(rand.NewSource(14))
	randMatrix := func(n int) [][]int64 {
		rows := make([][]int64, n)
		for i := range rows {
			rows[i] = make([]int64, n)
			for j := range rows[i] {
				if rng.Intn(3) == 0 {
					rows[i][j] = rng.Int63() >> uint(rng.Intn(63))
				}
			}
		}
		return rows
	}
	for i := 0; i < 24; i++ {
		n := 1 + rng.Intn(5)
		single := SingleRequest{
			Demand: randMatrix(n), Delta: rng.Int63n(1000), Algorithm: []string{"", "reco-sin", "a<b"}[rng.Intn(3)],
			DeadlineMS: int64(rng.Intn(3)) * 250, Weight: float64(rng.Intn(3)) * rng.Float64() * 1e21,
			Knobs: algo.Knobs{Cores: rng.Intn(3), K: rng.Intn(3), ElecFrac: float64(rng.Intn(2)) * rng.Float64()},
		}
		multi := MultiRequest{
			Demands: [][][]int64{randMatrix(n), randMatrix(n)}, Delta: rng.Int63n(1000), C: rng.Int63n(8),
			Weight: rng.Float64() * 1e-7, Knobs: algo.Knobs{Cores: rng.Intn(3)},
		}
		if rng.Intn(2) == 0 {
			multi.Weights = []float64{rng.Float64(), rng.NormFloat64() * 1e9}
		}
		var v any
		switch i % 4 {
		case 0:
			v = single
		case 1:
			v = multi
		case 2:
			v = JobRequest{Kind: "single", Single: &single}
		default:
			v = JobRequest{Kind: "multi", Multi: &multi}
		}
		body, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(min(i%4, 2)), body)
	}

	fast := func(which uint8, body []byte) (kind string, d decoded, ok bool) {
		p := parser{b: body}
		switch which % 3 {
		case 0:
			d, ok = p.request(false)
		case 1:
			d, ok = p.request(true)
		default:
			kind, d, ok = p.job()
		}
		return kind, d, ok && p.end()
	}

	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		var wantKind string
		var want decoded
		var err error
		kind, got, ok := fast(which, body)
		if !ok {
			return
		}
		switch which % 3 {
		case 0:
			want, err = refSingle(body)
		case 1:
			want, err = refMulti(body)
		default:
			wantKind, want, err = refJob(body)
		}
		if err != nil {
			t.Fatalf("fast parser accepted %q, reference rejects it: %v", body, err)
		}
		if kind != wantKind {
			t.Fatalf("%q: fast kind %q, reference %q", body, kind, wantKind)
		}
		if diff := diffDecoded(got, want); diff != "" {
			t.Fatalf("%q: %s\nfast      %+v\nreference %+v", body, diff, got, want)
		}
		for k, m := range got.req.Demands {
			if _, ok := m.Summary(); !ok {
				t.Fatalf("%q: fast-parsed demand %d carries no summary", body, k)
			}
		}

		// A second decode draws its matrices from the pool the first one's
		// were recycled to, dirty: it must read the same cells and carry
		// the same summaries.
		first := got
		first.req.Demands = make([]*matrix.Matrix, len(got.req.Demands))
		for k, m := range got.req.Demands {
			first.req.Demands[k] = m.Clone()
			for c, cells := 0, m.Cells(); c < len(cells); c++ {
				cells[c] = -1 - int64(c)
			}
			m.Recycle()
		}
		kind2, again, ok := fast(which, body)
		if !ok || kind2 != kind {
			t.Fatalf("%q: second decode: ok %v, kind %q, first decode kind %q", body, ok, kind2, kind)
		}
		gd, fd := again.req.Demands, first.req.Demands
		again.req.Demands, first.req.Demands = nil, nil
		if !reflect.DeepEqual(again, first) || len(gd) != len(fd) {
			t.Fatalf("%q: second decode differs outside the matrices", body)
		}
		for k, m := range gd {
			gs, gok := m.Summary()
			fs, fok := fd[k].Summary()
			if !m.Equal(fd[k]) || gs != fs || gok != fok {
				t.Fatalf("%q: demand %d decoded into a recycled matrix differs:\n%v%+v %v\nfirst decode:\n%v%+v %v",
					body, k, m, gs, gok, fd[k], fs, fok)
			}
		}
	})
}

// encoderInput reads an algo.Result out of fuzz bytes, one byte at a time;
// past the end every byte reads as zero.
type encoderInput []byte

func (in *encoderInput) byte() byte {
	if len(*in) == 0 {
		return 0
	}
	c := (*in)[0]
	*in = (*in)[1:]
	return c
}

// int draws a value from the encoders' edges: both sides of the end of
// smallInts' range, −1, values below it and the int64 extremes, or any
// eight bytes.
func (in *encoderInput) int() int64 {
	switch in.byte() % 8 {
	case 0:
		return int64(in.byte()) - 1 // −1 … 254
	case 1:
		return 1023 + int64(int8(in.byte())) // 895 … 1150
	case 2:
		return -1
	case 3:
		return -2 - int64(in.byte())
	case 4:
		return math.MinInt64
	case 5:
		return math.MaxInt64
	case 6:
		var v uint64
		for i := 0; i < 8; i++ {
			v = v<<8 | uint64(in.byte())
		}
		return int64(v)
	default:
		return 0
	}
}

// perm draws a nil, empty, short or long permutation. A long one is a
// rotation of 1 … 1276 ports with idle ports mixed in, so its entries
// cross the end of smallInts exactly when a real fabric that wide would,
// plus up to three drawn entries anywhere in it.
func (in *encoderInput) perm() []int {
	switch in.byte() % 4 {
	case 0:
		return nil
	case 1:
		return []int{}
	case 2:
		p := make([]int, 1+in.byte()%12)
		for i := range p {
			p[i] = int(in.int())
		}
		return p
	}
	p := make([]int, 1+5*int(in.byte()))
	shift := int(in.byte())
	for i := range p {
		if p[i] = (i + shift) % len(p); (i*7+shift)%5 == 0 {
			p[i] = -1
		}
	}
	for k := in.byte() % 4; k > 0; k-- {
		p[int(in.byte())*len(p)/256] = int(in.int())
	}
	return p
}

func (in *encoderInput) result() *algo.Result {
	res := &algo.Result{Reconfigs: int(in.int())}
	// Zero, one or two schedules: only a lone one is on the single wire.
	if k := in.byte() % 3; k > 0 {
		res.Schedules = make([]ocs.CircuitSchedule, k)
		for a := in.byte() % 6; a > 0; a-- {
			res.Schedules[0] = append(res.Schedules[0], ocs.Assignment{Perm: in.perm(), Dur: in.int()})
		}
	}
	if in.byte()%3 > 0 {
		res.CCTs = make([]int64, in.byte()%4)
		for i := range res.CCTs {
			res.CCTs[i] = in.int()
		}
	}
	for k := in.byte() % 8; k > 0; k-- {
		f := schedule.FlowInterval{Start: in.int(), End: in.int()}
		if in.byte()%2 == 1 {
			f.Gap = in.int()
		}
		f.In, f.Out, f.Coflow = int(in.int()), int(in.int()), int(in.int())
		res.Flows = append(res.Flows, f)
	}
	return res
}

// FuzzEncoders holds appendSingle and appendMulti to what json.Encoder
// writes for renderSingle and renderMulti, on results drawn from the fuzz
// bytes into buffers of drawn capacity, so that appendPerm's reservation
// has to grow the buffer as well as never.
func FuzzEncoders(f *testing.F) {
	f.Add([]byte{
		0,    // buffer capacity
		2,    // reconfigs −1
		1, 5, // one schedule of five assignments:
		0, 2, // nil permutation, dur −1
		1, 0, 1, // empty permutation, dur 0
		2, 7, 2, 1, 254, 1, 0, 1, 1, 3, 0, 4, 5, 0, 1, 5, // −1 1021 1023 1024 −2 MinInt MaxInt 0, dur MaxInt
		3, 204, 7, 2, 10, 4, 200, 1, 1, 6, 1, 2, 3, 4, 5, 6, 7, 8, // 1021 ports, two drawn entries
		3, 255, 0, 0, 0, 2, // 1276 ports, dur 1
		1, 3, 5, 4, 0, 0, // CCTs MaxInt MinInt −1
		2,                                // two flows:
		0, 1, 0, 11, 0, 0, 1, 0, 2, 0, 1, // no gap
		0, 11, 0, 31, 1, 0, 6, 1, 1, 1, 0, 2, // gap 5, ports 1024 and 1023, coflow −1
	})
	f.Add([]byte{
		7, 0, 3, 0, // capacity 7, reconfigs 2, no schedule
		0,                         // nil CCTs
		1, 4, 5, 1, 4, 3, 9, 5, 4, // one flow at the int64 extremes
	})
	f.Add([]byte{
		255, 0, 255, 2, 1, // capacity 255, reconfigs 254, two schedules, the first of one assignment:
		2, 2, 1, 0, 1, 1, 1, 255, 0, 4, // 1023 1024 1022, dur 3
		1, 1, 0, 8, // CCT 7
	})
	f.Add([]byte{
		// Capacity 64 is the 22 bytes up to "[" and the reservation for a
		// permutation of eight widest entries, 5·8+3, less one byte: it
		// must grow, or the last store runs off the end.
		64, 2, 1, 1, // reconfigs −1, one schedule of one assignment:
		2, 7, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 0, 0, // 1023 ×8, dur −1
		1, 1, 0, 1, // CCT 0
	})
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < 16; i++ {
		seed := make([]byte, 16+rng.Intn(240))
		rng.Read(seed)
		f.Add(seed)
	}
	d, err := matrix.FromRows([][]int64{{0, 400}, {300, 0}})
	if err != nil {
		f.Fatal(err)
	}
	req := algo.Request{Demands: []*matrix.Matrix{d}, Delta: 100}

	f.Fuzz(func(t *testing.T, data []byte) {
		in := encoderInput(data)
		size := int(in.byte())
		res := in.result()
		if len(res.CCTs) > 0 { // renderSingle reads CCTs[0]
			if got, want := appendSingle(make([]byte, 0, size), req, res), jsonLine(t, renderSingle(req, res)); !bytes.Equal(got, want) {
				t.Fatalf("single:\n got %s\nwant %s", got, want)
			}
		}
		if got, want := appendMulti(make([]byte, 0, size), res), jsonLine(t, renderMulti(res)); !bytes.Equal(got, want) {
			t.Fatalf("multi:\n got %s\nwant %s", got, want)
		}
	})
}
