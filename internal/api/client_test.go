package api

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// failingServer answers every request with fail. It returns the server and
// a request counter.
func failingServer(t *testing.T, fail func(w http.ResponseWriter)) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		fail(w)
	}))
	t.Cleanup(srv.Close)
	return srv, &calls
}

func TestNoRetryWithoutPolicy(t *testing.T) {
	srv, calls := failingServer(t, func(w http.ResponseWriter) {
		http.Error(w, `{"error":"transient"}`, http.StatusInternalServerError)
	})
	client := NewClient(srv.URL, srv.Client())
	if err := client.Healthz(context.Background()); err == nil {
		t.Fatal("Healthz succeeded against an always-500 server")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d requests, want 1 (the client never retries)", got)
	}
}

func TestNoRetryOn4xx(t *testing.T) {
	srv, calls := failingServer(t, func(w http.ResponseWriter) {
		http.Error(w, `{"error":"bad demand"}`, http.StatusBadRequest)
	})
	client := NewClient(srv.URL, srv.Client())
	_, err := client.ScheduleSingle(context.Background(), SingleRequest{})
	if err == nil {
		t.Fatal("ScheduleSingle succeeded against an always-400 server")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d requests, want 1 (the client never retries)", got)
	}
}

func TestNewClientNilDefaultsToTimeout(t *testing.T) {
	c := NewClient("http://127.0.0.1:0", nil)
	if c.http == http.DefaultClient {
		t.Fatal("nil httpClient fell back to http.DefaultClient")
	}
	if c.http.Timeout != DefaultTimeout {
		t.Errorf("timeout = %v, want %v", c.http.Timeout, DefaultTimeout)
	}
}
