package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestInProcessRun drives a short closed loop against the in-process
// server and checks the report shape end to end.
func TestInProcessRun(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := run([]string{
		"-inprocess", "-duration", "300ms", "-concurrency", "4",
		"-n", "8", "-coflows", "4", "-reuse", "0.9",
		"-mix", "single=0.8,multi=0.2",
	}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errBuf.String())
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("decoding report: %v", err)
	}
	if rep.TotalRequests == 0 || rep.TotalErrors != 0 || rep.ThroughputRPS <= 0 {
		t.Fatalf("report totals: %+v", rep)
	}
	single, ok := rep.Ops["single"]
	if !ok || single.Count == 0 || single.P50Ns <= 0 || single.P99Ns < single.P50Ns {
		t.Errorf("single op stats: %+v", single)
	}
	hits, ok := rep.Metrics["plancache_hits_total"].(float64)
	if !ok || hits == 0 {
		t.Errorf("report did not scrape cache hits: %v", rep.Metrics)
	}
}

// TestParseMix covers the request-mix grammar.
func TestParseMix(t *testing.T) {
	good := map[string]map[string]float64{
		"single=1":              {"single": 1},
		"single=0.8,multi=0.2":  {"single": 0.8, "multi": 0.2},
		"single=3, multi=1":     {"single": 0.75, "multi": 0.25},
		"single=0.5,single=0.5": {"single": 1},
		"multi=2":               {"multi": 1},
	}
	for in, want := range good {
		got, err := parseMix(in)
		if err != nil {
			t.Errorf("parseMix(%q): %v", in, err)
			continue
		}
		for k, w := range want {
			if diff := got[k] - w; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("parseMix(%q)[%s] = %v, want %v", in, k, got[k], w)
			}
		}
	}
	for _, in := range []string{"", "single", "bogus=1", "single=-1", "single=0", "single=x"} {
		if _, err := parseMix(in); err == nil {
			t.Errorf("parseMix(%q) accepted", in)
		}
	}
}

// TestBadInvocations exercises flag validation exits.
func TestBadInvocations(t *testing.T) {
	cases := [][]string{
		{},                                    // neither -server nor -inprocess
		{"-server", "http://x", "-inprocess"}, // both
		{"-inprocess", "-concurrency", "0"},
		{"-inprocess", "-reuse", "1.5"},
		{"-inprocess", "-mix", "bogus=1"},
	}
	for _, args := range cases {
		var out, errBuf bytes.Buffer
		if code := run(args, &out, &errBuf); code != 2 {
			t.Errorf("run(%v) exit %d, want 2", args, code)
		}
	}
}

// TestScrapeMetricsTimesOut: a server whose /metrics.json never answers
// costs the report its metrics, not the run its end.
func TestScrapeMetricsTimesOut(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	defer srv.Close()
	done := make(chan map[string]any, 1)
	go func() { done <- scrapeMetrics(srv.URL, 100*time.Millisecond) }()
	select {
	case got := <-done:
		if got != nil {
			t.Errorf("scrape of a hung server returned %v", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("scrapeMetrics still waiting on a server that never answers")
	}
}
