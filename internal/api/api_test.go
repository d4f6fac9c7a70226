package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"

	"reco/internal/obs"
)

func newTestServer(t *testing.T) (*httptest.Server, *Client) {
	t.Helper()
	s := NewServer(Options{})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() { srv.Close(); s.Close() })
	return srv, NewClient(srv.URL, srv.Client())
}

func TestHealthz(t *testing.T) {
	_, client := newTestServer(t)
	if err := client.Healthz(context.Background()); err != nil {
		t.Fatalf("Healthz: %v", err)
	}
}

func TestHealthzMethodNotAllowed(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Post(srv.URL+"/v1/healthz", "application/json", nil)
	if err != nil {
		t.Fatalf("POST healthz: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("status = %d, want 405", resp.StatusCode)
	}
}

func TestScheduleSingleRoundTrip(t *testing.T) {
	_, client := newTestServer(t)
	resp, err := client.ScheduleSingle(context.Background(), SingleRequest{
		Demand: [][]int64{
			{104, 109, 102},
			{103, 105, 107},
			{108, 101, 106},
		},
		Delta: 100,
	})
	if err != nil {
		t.Fatalf("ScheduleSingle: %v", err)
	}
	if resp.CCT != 618 {
		t.Errorf("CCT = %d, want 618", resp.CCT)
	}
	if resp.Reconfigs != 3 || len(resp.Schedule) != 3 {
		t.Errorf("unexpected schedule: %+v", resp)
	}
	if resp.LowerBound != 615 {
		t.Errorf("LowerBound = %d, want 615", resp.LowerBound)
	}
}

func TestScheduleSingleBadRequests(t *testing.T) {
	srv, client := newTestServer(t)
	ctx := context.Background()

	// Non-square demand.
	if _, err := client.ScheduleSingle(ctx, SingleRequest{Demand: [][]int64{{1, 2}}, Delta: 10}); err == nil {
		t.Error("non-square demand accepted")
	}
	// Negative entry.
	if _, err := client.ScheduleSingle(ctx, SingleRequest{Demand: [][]int64{{-1}}, Delta: 10}); err == nil {
		t.Error("negative demand accepted")
	}
	// Negative delta.
	if _, err := client.ScheduleSingle(ctx, SingleRequest{Demand: [][]int64{{5}}, Delta: -1}); err == nil {
		t.Error("negative delta accepted")
	}
	// Malformed JSON.
	resp, err := http.Post(srv.URL+"/v1/schedule/single", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatalf("malformed POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON status = %d, want 400", resp.StatusCode)
	}
	// Unknown fields are rejected.
	resp2, err := http.Post(srv.URL+"/v1/schedule/single", "application/json",
		strings.NewReader(`{"demand":[[1]],"delta":1,"bogus":true}`))
	if err != nil {
		t.Fatalf("unknown-field POST: %v", err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field status = %d, want 400", resp2.StatusCode)
	}
	// GET on a POST endpoint.
	resp3, err := http.Get(srv.URL + "/v1/schedule/single")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d, want 405", resp3.StatusCode)
	}
}

func TestScheduleMultiRoundTrip(t *testing.T) {
	_, client := newTestServer(t)
	resp, err := client.ScheduleMulti(context.Background(), MultiRequest{
		Demands: [][][]int64{
			{{400, 0}, {0, 400}},
			{{0, 400}, {400, 0}},
		},
		Weights: []float64{1, 2},
		Delta:   100,
		C:       4,
	})
	if err != nil {
		t.Fatalf("ScheduleMulti: %v", err)
	}
	if len(resp.CCTs) != 2 {
		t.Fatalf("CCTs = %v", resp.CCTs)
	}
	for k, c := range resp.CCTs {
		if c <= 0 {
			t.Errorf("CCT[%d] = %d", k, c)
		}
	}
	if len(resp.Flows) == 0 || resp.Reconfigs <= 0 {
		t.Errorf("degenerate response: %+v", resp)
	}
}

func TestScheduleMultiBadRequests(t *testing.T) {
	_, client := newTestServer(t)
	ctx := context.Background()
	if _, err := client.ScheduleMulti(ctx, MultiRequest{Delta: 100, C: 4}); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := client.ScheduleMulti(ctx, MultiRequest{
		Demands: [][][]int64{{{5}}}, Delta: 100, C: 0,
	}); err == nil {
		t.Error("c=0 accepted")
	}
	if _, err := client.ScheduleMulti(ctx, MultiRequest{
		Demands: [][][]int64{{{5}}, {{1, 0}, {0, 1}}}, Delta: 100, C: 4,
	}); err == nil {
		t.Error("mismatched dimensions accepted")
	}
}

func TestGenerateWorkloadRoundTrip(t *testing.T) {
	_, client := newTestServer(t)
	resp, err := client.GenerateWorkload(context.Background(), WorkloadRequest{
		N: 12, NumCoflows: 8, Seed: 3, MinDemand: 400,
	})
	if err != nil {
		t.Fatalf("GenerateWorkload: %v", err)
	}
	if len(resp.Demands) != 8 {
		t.Fatalf("got %d demands, want 8", len(resp.Demands))
	}
	for k, rows := range resp.Demands {
		if len(rows) != 12 {
			t.Errorf("demand %d has %d rows, want 12", k, len(rows))
		}
	}
	// Same seed, same workload.
	again, err := client.GenerateWorkload(context.Background(), WorkloadRequest{
		N: 12, NumCoflows: 8, Seed: 3, MinDemand: 400,
	})
	if err != nil {
		t.Fatalf("GenerateWorkload again: %v", err)
	}
	a, _ := json.Marshal(resp)
	bJSON, _ := json.Marshal(again)
	if !bytes.Equal(a, bJSON) {
		t.Error("same seed produced different workloads")
	}
	if _, err := client.GenerateWorkload(context.Background(), WorkloadRequest{N: 1, NumCoflows: 1}); err == nil {
		t.Error("invalid workload config accepted")
	}
}

// TestGenerateWorkloadTooLarge: a workload the server could never accept
// back is refused before its matrices are allocated — n = 100000 used to
// ask for an 80 GB matrix and die out of memory, which no recover catches.
// The server keeps serving afterwards.
func TestGenerateWorkloadTooLarge(t *testing.T) {
	_, client := newTestServer(t)
	ctx := context.Background()
	for _, req := range []WorkloadRequest{
		{N: 100000, NumCoflows: 1, Seed: 1},
		{N: 64, NumCoflows: 1 << 40, Seed: 1},
		{N: 1 << 62, NumCoflows: 1 << 62, Seed: 1},
	} {
		_, err := client.GenerateWorkload(ctx, req)
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
			t.Errorf("%+v: got %v, want a 400", req, err)
		} else if !strings.Contains(apiErr.Msg, "workload too large") {
			t.Errorf("%+v: message %q does not name the bound", req, apiErr.Msg)
		}
		if err := client.Healthz(ctx); err != nil {
			t.Fatalf("server stopped answering after %+v: %v", req, err)
		}
	}
}

func TestEndToEndWorkloadThenSchedule(t *testing.T) {
	_, client := newTestServer(t)
	ctx := context.Background()
	wl, err := client.GenerateWorkload(ctx, WorkloadRequest{N: 10, NumCoflows: 5, Seed: 1, MinDemand: 400})
	if err != nil {
		t.Fatalf("GenerateWorkload: %v", err)
	}
	multi, err := client.ScheduleMulti(ctx, MultiRequest{Demands: wl.Demands, Delta: 100, C: 4})
	if err != nil {
		t.Fatalf("ScheduleMulti: %v", err)
	}
	if len(multi.CCTs) != len(wl.Demands) {
		t.Errorf("CCT count %d != demand count %d", len(multi.CCTs), len(wl.Demands))
	}
	single, err := client.ScheduleSingle(ctx, SingleRequest{Demand: wl.Demands[0], Delta: 100})
	if err != nil {
		t.Fatalf("ScheduleSingle: %v", err)
	}
	if single.CCT > 2*single.LowerBound {
		t.Errorf("Theorem 2 violated over the wire: %d > 2*%d", single.CCT, single.LowerBound)
	}
}

func TestClientAgainstDeadServer(t *testing.T) {
	client := NewClient("http://127.0.0.1:1", nil) // nothing listens on port 1
	if err := client.Healthz(context.Background()); err == nil {
		t.Error("healthz against dead server succeeded")
	}
	if _, err := client.ScheduleSingle(context.Background(), SingleRequest{Demand: [][]int64{{1}}, Delta: 1}); err == nil {
		t.Error("schedule against dead server succeeded")
	}
}

func TestClientContextCancellation(t *testing.T) {
	_, client := newTestServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := client.Healthz(ctx); err == nil {
		t.Error("cancelled context succeeded")
	}
}

// instrumentedServer serves the assembled service on a fresh registry.
func instrumentedServer(t *testing.T) (*httptest.Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	s := NewServer(Options{})
	h, _ := s.InstrumentedHandlerOn(reg)
	srv := httptest.NewServer(h)
	t.Cleanup(func() { srv.Close(); s.Close() })
	return srv, reg
}

// getText GETs url and returns the status and the whole body.
func getText(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	if _, err := b.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b.String()
}

// TestMetricsEndpoint: /metrics counts requests and errors per endpoint,
// refuses anything but GET, and is the only text view (no /v1/metrics).
func TestMetricsEndpoint(t *testing.T) {
	srv, _ := instrumentedServer(t)
	client := NewClient(srv.URL, srv.Client())
	ctx := context.Background()

	if err := client.Healthz(ctx); err != nil {
		t.Fatalf("Healthz: %v", err)
	}
	// One failing request for the error counter.
	if _, err := client.ScheduleSingle(ctx, SingleRequest{Demand: [][]int64{{-1}}, Delta: 1}); err == nil {
		t.Fatal("bad request accepted")
	}

	status, text := getText(t, srv.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("GET /metrics status %d", status)
	}
	for _, want := range []string{
		`http_requests_total{endpoint="GET /v1/healthz"} 1`,
		`http_request_errors_total{endpoint="GET /v1/healthz"} 0`,
		`http_requests_total{endpoint="POST /v1/schedule/single"} 1`,
		`http_request_errors_total{endpoint="POST /v1/schedule/single"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}
	// Scrapes are not requests of the API.
	if strings.Contains(text, `endpoint="GET /metrics"`) {
		t.Errorf("/metrics counts its own scrapes:\n%s", text)
	}

	post, err := http.Post(srv.URL+"/metrics", "text/plain", nil)
	if err != nil {
		t.Fatalf("POST metrics: %v", err)
	}
	defer post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST metrics status = %d, want 405", post.StatusCode)
	}
	if status, _ := getText(t, srv.URL+"/v1/metrics"); status != http.StatusNotFound {
		t.Errorf("GET /v1/metrics status = %d, want 404", status)
	}
}

// TestMetricsQuantilesAndRegistry: the collector publishes into the
// registry it was given, /metrics.json carries each endpoint's latency
// count and quantiles, and /metrics the same histogram in Prometheus form.
func TestMetricsQuantilesAndRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewServer(Options{})
	defer s.Close()
	h, _ := s.InstrumentedHandlerOn(reg)
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	client := NewClient(srv.URL, srv.Client())
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if err := client.Healthz(ctx); err != nil {
			t.Fatalf("Healthz: %v", err)
		}
	}

	if got := reg.Counter(`http_requests_total{endpoint="GET /v1/healthz"}`).Value(); got != 5 {
		t.Fatalf("provided registry counts %d healthz requests, want 5", got)
	}

	_, js := getText(t, srv.URL+"/metrics.json")
	var out map[string]json.RawMessage
	if err := json.Unmarshal([]byte(js), &out); err != nil {
		t.Fatalf("decoding /metrics.json: %v", err)
	}
	var lat struct {
		Count         int64
		P50, P95, P99 float64
	}
	if err := json.Unmarshal(out[`http_request_seconds{endpoint="GET /v1/healthz"}`], &lat); err != nil {
		t.Fatalf("latency histogram: %v\n%s", err, js)
	}
	if lat.Count != 5 || lat.P50 <= 0 || lat.P95 < lat.P50 || lat.P99 < lat.P95 {
		t.Errorf("latency histogram = %+v, want 5 samples with ordered quantiles", lat)
	}

	_, prom := getText(t, srv.URL+"/metrics")
	for _, want := range []string{
		`http_requests_total{endpoint="GET /v1/healthz"} 5`,
		`http_request_seconds_count{endpoint="GET /v1/healthz"} 5`,
		"# TYPE http_request_seconds histogram",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prometheus export missing %q:\n%s", want, prom)
		}
	}
}

// TestMetricsSeriesBounded: the endpoint label comes from the route table,
// not the request line, so paths and methods a client makes up cannot grow
// the series. Unknown paths and non-standard methods share "other"; every
// job id is one "GET /v1/jobs/{id}".
func TestMetricsSeriesBounded(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewServer(Options{})
	defer s.Close()
	h, _ := s.InstrumentedHandlerOn(reg)
	serve := func(method, path string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(`{"demand":[[0,400],[400,0]],"delta":100}`)))
		return rec.Code
	}
	for i := 0; i < 1000; i++ {
		serve(http.MethodGet, fmt.Sprintf("/no/such/path/%d", i))
		if code := serve(http.MethodGet, fmt.Sprintf("/v1/jobs/j%d", i)); code != http.StatusNotFound {
			t.Fatalf("GET unknown job: status %d, want 404", code)
		}
	}
	serve("BREW", "/v1/schedule/single")
	serve("PROPFIND", "/v1/jobs")
	if code := serve(http.MethodPost, "/v1/schedule/single"); code != http.StatusOK {
		t.Fatalf("POST /v1/schedule/single: status %d", code)
	}
	serve(http.MethodGet, "/v1/healthz")

	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	counts := map[string]string{}
	for _, line := range strings.Split(prom.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, `http_requests_total{endpoint="`); ok {
			label, n, _ := strings.Cut(rest, `"} `)
			counts[label] = n
		}
	}
	want := map[string]string{
		"other":                    "1002",
		"GET /v1/jobs/{id}":        "1000",
		"POST /v1/schedule/single": "1",
		"GET /v1/healthz":          "1",
	}
	if len(counts) > len(want) {
		t.Fatalf("%d http_requests_total series after 2004 requests, want %d", len(counts), len(want))
	}
	if !reflect.DeepEqual(counts, want) {
		t.Errorf("http_requests_total series = %v, want %v", counts, want)
	}
	if prom.Len() > 32<<10 {
		t.Errorf("/metrics is %d bytes after 2004 requests", prom.Len())
	}
}

// TestRecodDocListsRoutes: every route of the assembled service appears in
// cmd/recod's package doc as a "METHOD /path" line.
func TestRecodDocListsRoutes(t *testing.T) {
	src, err := os.ReadFile("../../cmd/recod/main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, _ := strings.Cut(string(src), "\npackage main")
	listed, paths := map[string]bool{}, map[string]bool{}
	for _, line := range strings.Split(doc, "\n") {
		if w := strings.Fields(strings.TrimPrefix(line, "//")); len(w) >= 2 && strings.HasPrefix(w[1], "/") {
			listed[w[0]+" "+w[1]] = true
			paths[w[1]] = true
		}
	}
	s := NewServer(Options{})
	defer s.Close()
	for _, rt := range append(s.routes(), opsRoutes(obs.NewRegistry())...) {
		if !listed[rt.pattern] && !paths[rt.pattern] {
			t.Errorf("route %q is not in recod's package doc", rt.pattern)
		}
	}
}
