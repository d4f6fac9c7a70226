package api

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// fastRetry keeps test backoffs in the microsecond range.
var fastRetry = RetryPolicy{MaxAttempts: 4, BaseDelay: time.Microsecond, MaxDelay: time.Millisecond, Seed: 7}

// flakyServer fails the first n requests in the given way, then delegates to
// the real service handler. It returns the server and a request counter.
func flakyServer(t *testing.T, n int, fail func(w http.ResponseWriter)) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	s := NewServer(Options{})
	real := s.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= int64(n) {
			fail(w)
			return
		}
		real.ServeHTTP(w, r)
	}))
	t.Cleanup(func() { srv.Close(); s.Close() })
	return srv, &calls
}

func failWith500(w http.ResponseWriter) {
	http.Error(w, `{"error":"transient"}`, http.StatusInternalServerError)
}

// failWithReset breaks the connection mid-response, so the client sees a
// transport error rather than a status code.
func failWithReset(w http.ResponseWriter) {
	hj, ok := w.(http.Hijacker)
	if !ok {
		panic("test server does not support hijacking")
	}
	conn, _, err := hj.Hijack()
	if err != nil {
		panic(err)
	}
	conn.Close()
}

func TestRetryRecoversFrom5xx(t *testing.T) {
	srv, calls := flakyServer(t, 2, failWith500)
	client := NewClient(srv.URL, srv.Client()).WithRetry(fastRetry)
	if err := client.Healthz(context.Background()); err != nil {
		t.Fatalf("Healthz after retries: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d requests, want 3 (two 500s, one success)", got)
	}
}

func TestRetryRecoversFromConnectionErrors(t *testing.T) {
	srv, calls := flakyServer(t, 2, failWithReset)
	client := NewClient(srv.URL, srv.Client()).WithRetry(fastRetry)
	resp, err := client.ScheduleSingle(context.Background(), SingleRequest{
		Demand: [][]int64{{0, 400}, {400, 0}}, Delta: 100,
	})
	if err != nil {
		t.Fatalf("ScheduleSingle after retries: %v", err)
	}
	if resp.CCT <= 0 {
		t.Errorf("CCT = %d, want > 0", resp.CCT)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d requests, want 3 (two resets, one success)", got)
	}
}

func TestRetryGivesUpAfterMaxAttempts(t *testing.T) {
	srv, calls := flakyServer(t, 1<<30, failWith500)
	client := NewClient(srv.URL, srv.Client()).WithRetry(fastRetry)
	err := client.Healthz(context.Background())
	if err == nil {
		t.Fatal("Healthz succeeded against an always-500 server")
	}
	if got := calls.Load(); got != int64(fastRetry.MaxAttempts) {
		t.Errorf("server saw %d requests, want %d", got, fastRetry.MaxAttempts)
	}
}

func TestNoRetryWithoutPolicy(t *testing.T) {
	srv, calls := flakyServer(t, 1<<30, failWith500)
	client := NewClient(srv.URL, srv.Client())
	if err := client.Healthz(context.Background()); err == nil {
		t.Fatal("Healthz succeeded against an always-500 server")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d requests, want 1 (no retry policy)", got)
	}
}

func TestNoRetryOn4xx(t *testing.T) {
	srv, calls := flakyServer(t, 1<<30, func(w http.ResponseWriter) {
		http.Error(w, `{"error":"bad demand"}`, http.StatusBadRequest)
	})
	client := NewClient(srv.URL, srv.Client()).WithRetry(fastRetry)
	_, err := client.ScheduleSingle(context.Background(), SingleRequest{})
	if err == nil {
		t.Fatal("ScheduleSingle succeeded against an always-400 server")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d requests, want 1 (4xx is not retryable)", got)
	}
}

func TestRetryHonorsContext(t *testing.T) {
	srv, _ := flakyServer(t, 1<<30, failWith500)
	policy := RetryPolicy{MaxAttempts: 10, BaseDelay: time.Hour, Seed: 7}
	client := NewClient(srv.URL, srv.Client()).WithRetry(policy)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := client.Healthz(ctx)
	if err == nil {
		t.Fatal("Healthz succeeded against an always-500 server")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error %v does not wrap context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v; backoff ignored the context", elapsed)
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

func TestRetryBackoffBounds(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 8, BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond}
	c := NewClient("http://127.0.0.1:0", nil).WithRetry(p)
	for r := 1; r < p.MaxAttempts; r++ {
		d := p.backoff(r, c.rng)
		if d < p.BaseDelay/2 {
			t.Errorf("retry %d: backoff %v below half the base delay", r, d)
		}
		if d > p.MaxDelay {
			t.Errorf("retry %d: backoff %v exceeds the cap %v", r, d, p.MaxDelay)
		}
	}
}
