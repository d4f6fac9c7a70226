package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"reco/internal/api"
	"reco/internal/obs"
)

// TestRecoverPanicsReturnsJSON500: a panicking handler yields a structured
// JSON 500 instead of a dropped connection, and the server keeps serving.
func TestRecoverPanicsReturnsJSON500(t *testing.T) {
	logger := log.New(io.Discard, "", 0)
	mux := http.NewServeMux()
	mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	mux.HandleFunc("/ok", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	srv := httptest.NewServer(logRequests(logger, recoverPanics(logger, mux)))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/boom")
	if err != nil {
		t.Fatalf("GET /boom: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decoding 500 body: %v", err)
	}
	if body.Error == "" {
		t.Error("500 body has no error field")
	}

	// The panic must not have taken the server down.
	for i := 0; i < 3; i++ {
		ok, err := http.Get(srv.URL + "/ok")
		if err != nil {
			t.Fatalf("GET /ok after panic: %v", err)
		}
		ok.Body.Close()
		if ok.StatusCode != http.StatusOK {
			t.Errorf("GET /ok after panic: status %d", ok.StatusCode)
		}
	}
}

// TestHandlerServesAPIAfterPanic drives the real recod middleware chain: the
// service endpoints still answer after a request panics somewhere below the
// recovery middleware.
func TestHandlerServesAPIAfterPanic(t *testing.T) {
	logger := log.New(io.Discard, "", 0)
	h, apiSrv := handler(logger, obs.NewRegistry(), api.Options{}, false)
	defer apiSrv.Close()
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatalf("GET healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	single, err := http.Post(srv.URL+"/v1/schedule/single", "application/json",
		strings.NewReader(`{"demand":[[0,400],[400,0]],"delta":100}`))
	if err != nil {
		t.Fatalf("POST schedule/single: %v", err)
	}
	defer single.Body.Close()
	if single.StatusCode != http.StatusOK {
		t.Fatalf("schedule/single status %d", single.StatusCode)
	}
}

// TestRecoverPanicsPropagatesAbort: http.ErrAbortHandler is the sanctioned
// way to abort a response and must pass through untouched.
func TestRecoverPanicsPropagatesAbort(t *testing.T) {
	logger := log.New(io.Discard, "", 0)
	h := recoverPanics(logger, http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	defer func() {
		if rec := recover(); rec != http.ErrAbortHandler {
			t.Errorf("recovered %v, want http.ErrAbortHandler", rec)
		}
	}()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
}

// TestOperationalEndpoints drives the full recod chain: /healthz reports
// uptime and Go version, /metrics serves Prometheus text including both
// HTTP and scheduler-pipeline series after a scheduling request, and
// /metrics.json parses as JSON.
func TestOperationalEndpoints(t *testing.T) {
	obs.Detach()
	t.Cleanup(obs.Detach)
	logger := log.New(io.Discard, "", 0)
	reg := obs.NewRegistry()
	// main attaches the sink; the test stands in for it so pipeline
	// metrics emitted while serving land in the same registry.
	obs.Attach(&obs.Sink{Metrics: reg})
	h, apiSrv := handler(logger, reg, api.Options{}, false)
	defer apiSrv.Close()
	srv := httptest.NewServer(h)
	defer srv.Close()

	hz, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer hz.Body.Close()
	var health struct {
		Status string `json:"status"`
		Uptime string `json:"uptime"`
		Go     string `json:"go"`
	}
	if err := json.NewDecoder(hz.Body).Decode(&health); err != nil {
		t.Fatalf("decoding /healthz: %v", err)
	}
	if health.Status != "ok" || health.Uptime == "" || !strings.HasPrefix(health.Go, "go") {
		t.Errorf("healthz = %+v", health)
	}

	// One scheduling request so pipeline stages fire.
	single, err := http.Post(srv.URL+"/v1/schedule/single", "application/json",
		strings.NewReader(`{"demand":[[0,400],[400,0]],"delta":100}`))
	if err != nil {
		t.Fatalf("POST schedule/single: %v", err)
	}
	single.Body.Close()
	if single.StatusCode != http.StatusOK {
		t.Fatalf("schedule/single status %d", single.StatusCode)
	}

	prom, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer prom.Body.Close()
	var b strings.Builder
	if _, err := io.Copy(&b, prom.Body); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# TYPE http_requests_total counter",
		`http_requests_total{endpoint="POST /v1/schedule/single"} 1`,
		"# TYPE pipeline_stage_seconds histogram",
		`pipeline_stage_seconds_count{stage="stuff"} 1`,
		"reco_sin_schedules_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}

	js, err := http.Get(srv.URL + "/metrics.json")
	if err != nil {
		t.Fatalf("GET /metrics.json: %v", err)
	}
	defer js.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(js.Body).Decode(&out); err != nil {
		t.Fatalf("decoding /metrics.json: %v", err)
	}
	if _, ok := out["reco_sin_schedules_total"]; !ok {
		t.Errorf("/metrics.json missing pipeline counter; keys: %d", len(out))
	}
}

// TestPprofGating: /debug/pprof/ is 404 without -pprof and serves the
// index with it.
func TestPprofGating(t *testing.T) {
	logger := log.New(io.Discard, "", 0)

	offH, offSrv := handler(logger, obs.NewRegistry(), api.Options{}, false)
	defer offSrv.Close()
	off := httptest.NewServer(offH)
	defer off.Close()
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("pprof served without -pprof")
	}

	onH, onSrv := handler(logger, obs.NewRegistry(), api.Options{}, true)
	defer onSrv.Close()
	on := httptest.NewServer(onH)
	defer on.Close()
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index status %d with -pprof", resp.StatusCode)
	}
}

// TestFlagsDocumented: every flag recod registers has a row in
// docs/SERVICE.md's "Flag reference (recod)" table.
func TestFlagsDocumented(t *testing.T) {
	var usage bytes.Buffer
	if code := run([]string{"-h"}, &usage); code != 0 {
		t.Fatalf("recod -h exit %d", code)
	}
	doc, err := os.ReadFile("../../docs/SERVICE.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), "## Flag reference (recod)")
	if !ok {
		t.Fatal(`docs/SERVICE.md has no "Flag reference (recod)" section`)
	}
	table, _, _ = strings.Cut(table, "\n## ")
	flags := 0
	for _, line := range strings.Split(usage.String(), "\n") {
		rest, ok := strings.CutPrefix(line, "  -")
		if !ok {
			continue
		}
		flags++
		if name := strings.Fields(rest)[0]; !strings.Contains(table, "| `-"+name+"` |") {
			t.Errorf("flag -%s has no row in docs/SERVICE.md's flag reference", name)
		}
	}
	if flags == 0 {
		t.Fatalf("no flags in recod's usage:\n%s", usage.String())
	}
}
