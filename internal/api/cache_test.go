package api

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"reco/internal/algo"
	"reco/internal/matrix"
	"reco/internal/obs"
	"reco/internal/plancache"
	"reco/internal/workload"
)

// postRaw POSTs body and returns (status, response bytes).
func postRaw(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp.StatusCode, out
}

// scribbleN is the widest matrix scribblePool reaches, past every request
// the tests that call it post.
const scribbleN = 16

// scribblePool fills the pooled storage of every matrix up to scribbleN
// ports with garbage: it acquires several matrices of each size, writes
// every cell, and recycles them dirty. Anything that still reads a matrix
// it recycled then reads garbage (or, under -race, races the writes).
func scribblePool() {
	var held []*matrix.Matrix
	for n := 1; n <= scribbleN; n++ {
		for range 4 {
			m := matrix.Acquire(n)
			for k, cells := 0, m.Cells(); k < len(cells); k++ {
				cells[k] = 0x5ca1ab1e + int64(k)
			}
			held = append(held, m)
		}
	}
	for _, m := range held {
		m.Recycle()
	}
}

// TestCachedResponsesByteIdentical is the differential test for the plan
// cache: for every registry algorithm and every input, the cache-miss
// response, the cache-hit response, and an uncached server's response must
// be byte-identical, with the matrix pool scribbled on after each request,
// so a plan or response that still read a recycled demand would differ.
// The inputs end with an ε-close pair, [[400,0],[0,400]] then
// [[401,0],[0,400]]: the second must get a plan of its own, never the
// first one's, and no cached single-coflow response of a circuit-only
// scheduler may claim a CCT below its own lower bound.
func TestCachedResponsesByteIdentical(t *testing.T) {
	ensureTestBlock()
	reg := obs.NewRegistry()
	obs.Attach(&obs.Sink{Metrics: reg})
	defer obs.Detach()

	cached := NewServer(Options{})
	cachedSrv := httptest.NewServer(cached.Handler())
	defer func() { cachedSrv.Close(); cached.Close() }()
	plain := NewServer(Options{NoCache: true})
	plainSrv := httptest.NewServer(plain.Handler())
	defer func() { plainSrv.Close(); plain.Close() }()

	inputs := [][][]int64{jobDemand, {{400, 0}, {0, 400}}, {{401, 0}, {0, 400}}}
	for _, s := range algo.All() {
		name := s.Name()
		if strings.HasPrefix(name, "test-") {
			continue
		}
		t.Run(name, func(t *testing.T) {
			caps := s.Caps()
			if !caps.SingleCoflow && !caps.MultiCoflow {
				t.Skipf("%s schedules neither single nor multi", name)
			}
			for _, demand := range inputs {
				path := "/v1/schedule/single"
				body, err := json.Marshal(SingleRequest{Demand: demand, Delta: 100, Algorithm: name})
				if !caps.SingleCoflow {
					path = "/v1/schedule/multi"
					body, err = json.Marshal(MultiRequest{
						Demands: [][][]int64{demand, demand}, Delta: 100, C: 4, Algorithm: name,
					})
				}
				if err != nil {
					t.Fatal(err)
				}
				hitsBefore := reg.Counter("plancache_hits_total").Value()
				missesBefore := reg.Counter("plancache_misses_total").Value()
				missStatus, missBody := postRaw(t, cachedSrv.URL+path, body)
				scribblePool()
				hitStatus, hitBody := postRaw(t, cachedSrv.URL+path, body)
				scribblePool()
				plainStatus, plainBody := postRaw(t, plainSrv.URL+path, body)
				scribblePool()
				if missStatus != http.StatusOK || hitStatus != http.StatusOK || plainStatus != http.StatusOK {
					t.Fatalf("%v: statuses: miss=%d hit=%d uncached=%d", demand, missStatus, hitStatus, plainStatus)
				}
				if !bytes.Equal(missBody, hitBody) {
					t.Errorf("%v: cache-hit response differs from cache-miss:\nmiss: %s\nhit:  %s", demand, missBody, hitBody)
				}
				if !bytes.Equal(missBody, plainBody) {
					t.Errorf("%v: cached response differs from uncached:\ncached:   %s\nuncached: %s", demand, missBody, plainBody)
				}
				if got := reg.Counter("plancache_hits_total").Value() - hitsBefore; got != 1 {
					t.Errorf("%v: second request recorded %d cache hits, want 1", demand, got)
				}
				// One miss, the first request's: the NoCache server has no
				// cache to look in.
				if got := reg.Counter("plancache_misses_total").Value() - missesBefore; got != 1 {
					t.Errorf("%v: three requests recorded %d cache misses, want 1", demand, got)
				}
				// The bound is the circuit switch's: with an electrical fabric
				// beside the circuits (Caps.Hybrid) part of the demand pays no δ.
				if caps.SingleCoflow && !caps.Hybrid {
					var resp SingleResponse
					if err := json.Unmarshal(hitBody, &resp); err != nil {
						t.Fatal(err)
					}
					if resp.CCT < resp.LowerBound {
						t.Errorf("%v: cached cct %d is below its lower bound %d", demand, resp.CCT, resp.LowerBound)
					}
				}
			}
		})
	}
	if reg.Gauge("plancache_entries").Value() == 0 {
		t.Error("cache is empty after the sweep")
	}
}

// TestConcurrentIdenticalRequestsCoalesce drives N identical requests at
// the HTTP layer while the scheduler is provably still computing, and
// asserts the scheduler ran exactly once.
func TestConcurrentIdenticalRequestsCoalesce(t *testing.T) {
	const n = 8
	_, client := newJobTestServer(t, Options{})
	release, started := testBlock.arm()
	defer func() { release(); testBlock.disarm() }()

	body, err := json.Marshal(SingleRequest{Demand: jobDemand, Delta: 100, Algorithm: "test-block"})
	if err != nil {
		t.Fatal(err)
	}
	url := client.base + "/v1/schedule/single"

	type reply struct {
		status int
		body   []byte
	}
	replies := make(chan reply, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(url, "application/json", bytes.NewReader(body))
			if err != nil {
				replies <- reply{status: -1}
				return
			}
			defer resp.Body.Close()
			out, _ := io.ReadAll(resp.Body)
			replies <- reply{resp.StatusCode, out}
		}()
	}
	<-started // the one leader is inside Schedule; everyone else must join it
	release()
	wg.Wait()
	close(replies)

	var first []byte
	for r := range replies {
		if r.status != http.StatusOK {
			t.Fatalf("request failed: status %d body %s", r.status, r.body)
		}
		if first == nil {
			first = r.body
		} else if !bytes.Equal(first, r.body) {
			t.Errorf("coalesced responses differ:\n%s\n%s", first, r.body)
		}
	}
	select {
	case <-started:
		t.Fatal("scheduler ran more than once for identical concurrent requests")
	default:
	}
}

// TestCoalescedFollowerOutlivesLeaderDeadline is the ownership rule of a
// request's pooled matrices under coalescing: a leader whose deadline_ms
// expires answers 504 while the computation it started goes on for a
// follower that joined it, and that computation reads the leader's demand.
// The leader must leave its matrices to the collector, so scribbling the
// pool before the computation resumes cannot reach them: the follower's
// body is byte-identical to an uncached solve.
func TestCoalescedFollowerOutlivesLeaderDeadline(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Attach(&obs.Sink{Metrics: reg})
	defer obs.Detach()
	_, client := newJobTestServer(t, Options{})
	release, started := testBlockSin.arm()
	defer func() { release(); testBlockSin.disarm() }()

	rng := rand.New(rand.NewSource(37))
	demand := make([][]int64, 12)
	for i := range demand {
		demand[i] = make([]int64, len(demand))
		for j := range demand[i] {
			demand[i][j] = 1 + rng.Int63n(1000)
		}
	}
	const leaderDeadlineMS = 500
	req := SingleRequest{Demand: demand, Delta: 100, Algorithm: testBlockSin.name, DeadlineMS: leaderDeadlineMS}
	leaderBody, _ := json.Marshal(req)
	req.DeadlineMS = 0
	followerBody, _ := json.Marshal(req)

	url := client.base + "/v1/schedule/single"
	type reply struct {
		status int
		body   []byte
	}
	post := func(body []byte, to chan<- reply) {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			to <- reply{status: -1, body: []byte(err.Error())}
			return
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		to <- reply{resp.StatusCode, out}
	}
	leader, follower := make(chan reply, 1), make(chan reply, 1)
	go post(leaderBody, leader)
	<-started // the leader's computation is inside Schedule
	joined := reg.Counter("plancache_coalesced_total")
	go post(followerBody, follower)
	for joined.Value() == 0 {
		select {
		case r := <-leader:
			t.Fatalf("leader answered %d before the follower joined it", r.status)
		case <-time.After(time.Millisecond):
		}
	}
	if r := <-leader; r.status != http.StatusGatewayTimeout {
		t.Fatalf("leader: status %d, want 504: %s", r.status, r.body)
	}
	scribblePool()
	release()
	got := <-follower

	plain := NewServer(Options{NoCache: true})
	plainSrv := httptest.NewServer(plain.Handler())
	defer func() { plainSrv.Close(); plain.Close() }()
	wantStatus, want := postRaw(t, plainSrv.URL+"/v1/schedule/single", followerBody)
	if got.status != http.StatusOK || wantStatus != http.StatusOK {
		t.Fatalf("statuses: follower %d, uncached %d: %s", got.status, wantStatus, got.body)
	}
	if !bytes.Equal(got.body, want) {
		t.Errorf("follower of a timed-out leader differs from an uncached solve:\nfollower: %s\nuncached: %s", got.body, want)
	}
}

// TestMaxBodyRejected checks the configurable request-size cap: an
// oversized body draws a structured 413, a small one still works.
func TestMaxBodyRejected(t *testing.T) {
	s := NewServer(Options{MaxBodyBytes: 256})
	srv := httptest.NewServer(s.Handler())
	defer func() { srv.Close(); s.Close() }()

	big, err := json.Marshal(SingleRequest{
		Demand: [][]int64{
			{101, 102, 103, 104, 105, 106, 107, 108},
			{101, 102, 103, 104, 105, 106, 107, 108},
			{101, 102, 103, 104, 105, 106, 107, 108},
			{101, 102, 103, 104, 105, 106, 107, 108},
			{101, 102, 103, 104, 105, 106, 107, 108},
			{101, 102, 103, 104, 105, 106, 107, 108},
			{101, 102, 103, 104, 105, 106, 107, 108},
			{101, 102, 103, 104, 105, 106, 107, 108},
		},
		Delta: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(big) <= 256 {
		t.Fatalf("test body is only %d bytes; grow it", len(big))
	}
	status, body := postRaw(t, srv.URL+"/v1/schedule/single", big)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413 (body %s)", status, body)
	}
	var apiErr errorResponse
	if err := json.Unmarshal(body, &apiErr); err != nil {
		t.Fatalf("413 body is not structured JSON: %v (%s)", err, body)
	}
	if !strings.Contains(apiErr.Error, "256") {
		t.Errorf("413 error %q does not name the limit", apiErr.Error)
	}

	small, _ := json.Marshal(SingleRequest{Demand: jobDemand, Delta: 100})
	if len(small) > 256 {
		t.Fatalf("small body is %d bytes; shrink it", len(small))
	}
	if status, body := postRaw(t, srv.URL+"/v1/schedule/single", small); status != http.StatusOK {
		t.Errorf("small body: status %d (%s)", status, body)
	}
}

// TestCacheSharedAcrossEndpoints ensures the multi endpoint and the async
// job path feed the same cache as the single endpoint: a job for a request
// the sync endpoint already computed is a cache hit, and byte-identical.
func TestCacheSharedAcrossEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Attach(&obs.Sink{Metrics: reg})
	defer obs.Detach()

	_, client := newJobTestServer(t, Options{})
	ctx := context.Background()
	req := SingleRequest{Demand: jobDemand, Delta: 100}
	sync, err := client.ScheduleSingle(ctx, req)
	if err != nil {
		t.Fatalf("ScheduleSingle: %v", err)
	}
	hitsBefore := reg.Counter("plancache_hits_total").Value()
	info, err := client.SubmitJob(ctx, JobRequest{Kind: "single", Single: &req})
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	final, err := client.WaitJob(ctx, info.ID, 0)
	if err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	if final.State != JobDone || final.Single == nil {
		t.Fatalf("final: %+v", final)
	}
	if got := reg.Counter("plancache_hits_total").Value() - hitsBefore; got != 1 {
		t.Errorf("job after sync request recorded %d cache hits, want 1", got)
	}
	a, _ := json.Marshal(sync)
	b, _ := json.Marshal(final.Single)
	if !bytes.Equal(a, b) {
		t.Errorf("job result differs from sync result:\n%s\n%s", a, b)
	}
}

// TestSingleAndMultiKeepSeparatePlans: a single-coflow request asks for no
// flow list, so its plan must never answer a multi request for the same
// coflow, algorithm, δ and c, which reads the flows. The multi response
// after a cached single one must carry exactly the flows an uncached server
// answers.
func TestSingleAndMultiKeepSeparatePlans(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Attach(&obs.Sink{Metrics: reg})
	defer obs.Detach()

	cached := NewServer(Options{})
	cachedSrv := httptest.NewServer(cached.Handler())
	defer func() { cachedSrv.Close(); cached.Close() }()
	plain := NewServer(Options{NoCache: true})
	plainSrv := httptest.NewServer(plain.Handler())
	defer func() { plainSrv.Close(); plain.Close() }()

	single, err := json.Marshal(SingleRequest{Demand: jobDemand, Delta: 100, Algorithm: algo.NameRecoSin})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := json.Marshal(MultiRequest{Demands: [][][]int64{jobDemand}, Delta: 100, C: defaultC, Algorithm: algo.NameRecoSin})
	if err != nil {
		t.Fatal(err)
	}
	if status, body := postRaw(t, cachedSrv.URL+"/v1/schedule/single", single); status != http.StatusOK {
		t.Fatalf("single: status %d (%s)", status, body)
	}
	status, got := postRaw(t, cachedSrv.URL+"/v1/schedule/multi", multi)
	plainStatus, want := postRaw(t, plainSrv.URL+"/v1/schedule/multi", multi)
	if status != http.StatusOK || plainStatus != http.StatusOK {
		t.Fatalf("multi: statuses cached=%d uncached=%d", status, plainStatus)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("multi after single differs from uncached multi:\ncached:   %s\nuncached: %s", got, want)
	}
	var resp MultiResponse
	if err := json.Unmarshal(got, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Flows) == 0 {
		t.Errorf("multi response carries no flows: %s", got)
	}
	if n := int(reg.Gauge("plancache_entries").Value()); n != 2 {
		t.Errorf("cache holds %d plans, want 2 (one per endpoint)", n)
	}
}

// TestCacheHoldsDenseSinglePlans: a single-coflow plan holds no flow list,
// so a 16 MiB cache keeps 64 dense n = 64 plans resident (~6 MB; each
// 1 MiB shard has room for ten), and replaying the requests that made them
// is all hits. With the flow list each plan is charged ~0.5 MB and the
// cache keeps fewer than half.
func TestCacheHoldsDenseSinglePlans(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Attach(&obs.Sink{Metrics: reg})
	defer obs.Detach()

	const plans = 64
	bodies := benchBodies(t, 64)[workload.Dense]
	srv := NewServer(Options{Cache: plancache.Config{MaxBytes: 16 << 20}})
	defer srv.Close()
	h := srv.Handler()
	post := func(i int) []byte {
		rec := httptest.NewRecorder()
		body := bodies[i%len(bodies)].bump(nil, i)
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule/single", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d (%s)", i, rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Bytes()
	}
	first := make([][]byte, plans)
	for i := range first {
		first[i] = post(i)
	}
	t.Logf("%v plans resident, %v bytes charged", reg.Gauge("plancache_entries").Value(), reg.Gauge("plancache_bytes").Value())
	hits := reg.Counter("plancache_hits_total").Value()
	for i := range first {
		if got := post(i); !bytes.Equal(got, first[i]) {
			t.Fatalf("request %d: replayed response differs", i)
		}
	}
	if got := reg.Counter("plancache_hits_total").Value() - hits; got != plans {
		t.Errorf("replaying %d primed requests made %d cache hits, want %d", plans, got, plans)
	}
}
