package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"reco/internal/obs"
)

func newTestServer(t *testing.T) (*httptest.Server, *Client) {
	t.Helper()
	srv := httptest.NewServer(NewHandler())
	t.Cleanup(srv.Close)
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

func TestMetricsEndpoint(t *testing.T) {
	srv := httptest.NewServer(NewInstrumentedHandler())
	t.Cleanup(srv.Close)
	client := NewClient(srv.URL, srv.Client())
	ctx := context.Background()

	if err := client.Healthz(ctx); err != nil {
		t.Fatalf("Healthz: %v", err)
	}
	// One failing request for the error counter.
	if _, err := client.ScheduleSingle(ctx, SingleRequest{Demand: [][]int64{{-1}}, Delta: 1}); err == nil {
		t.Fatal("bad request accepted")
	}

	resp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatalf("GET metrics: %v", err)
	}
	defer resp.Body.Close()
	body := make([]byte, 4096)
	n, _ := resp.Body.Read(body)
	text := string(body[:n])
	if !strings.Contains(text, "GET /v1/healthz") {
		t.Errorf("metrics missing healthz line:\n%s", text)
	}
	if !strings.Contains(text, "POST /v1/schedule/single") || !strings.Contains(text, "errors=1") {
		t.Errorf("metrics missing error accounting:\n%s", text)
	}

	// POST to the metrics endpoint is rejected.
	post, err := http.Post(srv.URL+"/v1/metrics", "text/plain", nil)
	if err != nil {
		t.Fatalf("POST metrics: %v", err)
	}
	defer post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST metrics status = %d, want 405", post.StatusCode)
	}
}

// TestMetricsQuantilesAndRegistry: the plain-text handler reports latency
// quantile columns, and the same samples are visible through the shared
// obs registry in Prometheus form.
func TestMetricsQuantilesAndRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	h, m := NewInstrumentedHandlerOn(reg)
	if m.Registry() != reg {
		t.Fatal("collector not publishing into the provided registry")
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	client := NewClient(srv.URL, srv.Client())
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if err := client.Healthz(ctx); err != nil {
			t.Fatalf("Healthz: %v", err)
		}
	}

	resp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatalf("GET metrics: %v", err)
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	if _, err := b.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, col := range []string{"p50=", "p95=", "p99=", "mean=", "max="} {
		if !strings.Contains(text, col) {
			t.Errorf("metrics text missing %q column:\n%s", col, text)
		}
	}

	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`http_requests_total{endpoint="GET /v1/healthz"} 5`,
		`http_request_seconds_count{endpoint="GET /v1/healthz"} 5`,
		"# TYPE http_request_seconds histogram",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("prometheus export missing %q:\n%s", want, prom.String())
		}
	}
}
