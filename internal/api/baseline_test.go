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
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"reco/internal/algo"
	"reco/internal/obs"
)

// baselineSlack is how many goroutines above its starting count the server
// may still hold once every client has gone and idle connections are shut.
const baselineSlack = 2

// TestServerReturnsToBaseline drives the assembled service
// (InstrumentedHandlerOn over a real listener) through the ways a
// synchronous request can end early, then requires the process to fall back
// to the goroutine count it started with: no scheduler, coalesced
// computation or connection may outlive the clients that asked for it.
//
//   - heavy: dense n = 120 requests to eight registry entries at once, each
//     with deadline_ms 1, so every one ends on its deadline mid-solve;
//   - cancel: clients that hang up while their computation is running;
//   - coalesced: identical requests joined onto one computation, all of
//     whose waiters leave before it finishes.
//
// The blocking scheduler of the last two legs is never released before the
// check, so only cancellation can bring the count back.
func TestServerReturnsToBaseline(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Attach(&obs.Sink{Metrics: reg})
	defer obs.Detach()
	ensureTestBlock()
	s := NewServer(Options{})
	h, _ := s.InstrumentedHandlerOn(nil)
	srv := httptest.NewServer(h)
	defer func() { srv.Close(); s.Close() }()
	client := srv.Client()
	url := srv.URL + "/v1/schedule/single"

	base := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(38))
	body := func(name string, n int, deadlineMS int64) []byte {
		// Helios refuses cells this large at n = 120 (its slot bound), so
		// it gets cells up to 1000: under the bound, still far past 1 ms.
		top := int64(1_000_000)
		if name == algo.NameHelios {
			top = 1000
		}
		demand := make([][]int64, n)
		for i := range demand {
			demand[i] = make([]int64, n)
			for j := range demand[i] {
				demand[i][j] = 1 + rng.Int63n(top)
			}
		}
		b, err := json.Marshal(SingleRequest{Demand: demand, Delta: 100, Algorithm: name, DeadlineMS: deadlineMS})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// post sends b under ctx and returns the status, or -1 when the client
	// gave up before an answer came.
	post := func(ctx context.Context, b []byte) int {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(b))
		if err != nil {
			t.Error(err)
			return 0
		}
		resp, err := client.Do(req)
		if err != nil {
			return -1
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}

	t.Run("heavy", func(t *testing.T) {
		names := []string{
			algo.NameRecoSin, algo.NameRecoSparse, algo.NameSolstice, algo.NameEclipse,
			algo.NameHelios, algo.NameHybrid, algo.NameHybridFluid, algo.NameSunflow,
		}
		bodies := make([][]byte, len(names))
		for i, name := range names {
			bodies[i] = body(name, 120, 1)
		}
		codes := make([]int, len(names))
		var wg sync.WaitGroup
		for i, b := range bodies {
			wg.Add(1)
			go func() {
				defer wg.Done()
				codes[i] = post(context.Background(), b)
			}()
		}
		wg.Wait()
		for i, code := range codes {
			if code != http.StatusGatewayTimeout && code != http.StatusOK {
				t.Errorf("%s: status %d, want 504 (or 200 inside the deadline)", names[i], code)
			}
		}
		t.Logf("statuses %v", codes)
	})

	release, started := testBlockSin.arm()
	defer func() { release(); testBlockSin.disarm() }()

	t.Run("cancel", func(t *testing.T) {
		for range 4 {
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan int, 1)
			go func() { done <- post(ctx, body(testBlockSin.name, 12, 0)) }()
			<-started // the computation is running
			cancel()
			if code := <-done; code != -1 {
				t.Errorf("cancelled client got status %d", code)
			}
		}
	})

	t.Run("coalesced", func(t *testing.T) {
		const waiters = 4
		b := body(testBlockSin.name, 12, 0)
		joined := reg.Counter("plancache_coalesced_total")
		before := joined.Value()
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		for range waiters {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if code := post(ctx, b); code != -1 {
					t.Errorf("cancelled waiter got status %d", code)
				}
			}()
		}
		<-started
		for joined.Value()-before < waiters-1 {
			time.Sleep(time.Millisecond)
		}
		cancel()
		wg.Wait()
		select {
		case <-started:
			t.Error("identical concurrent requests started a second computation")
		default:
		}
	})

	client.CloseIdleConnections()
	begin := time.Now()
	for runtime.NumGoroutine() > base+baselineSlack {
		if time.Since(begin) > 2*time.Second {
			var stacks strings.Builder
			pprof.Lookup("goroutine").WriteTo(&stacks, 1)
			t.Fatalf("%d goroutines 2 s after the last client left, baseline %d + %d:\n%s",
				runtime.NumGoroutine(), base, baselineSlack, stacks.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Logf("back to %d goroutines (baseline %d) in %v", runtime.NumGoroutine(), base, time.Since(begin))
}
