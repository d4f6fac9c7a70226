package plancache

import (
	"context"
	"errors"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"reco/internal/algo"
	"reco/internal/obs"
)

// TestGroupCoalescesConcurrentRequests arranges N goroutines calling Do
// with one key while the computation is provably in flight (it blocks until
// all N have joined), and asserts exactly one compute invocation.
func TestGroupCoalescesConcurrentRequests(t *testing.T) {
	const n = 16
	g := NewGroup(New(Config{}))
	var invocations atomic.Int64
	joined := make(chan struct{})
	var joinCount atomic.Int64

	compute := func(ctx context.Context) (*algo.Result, error) {
		invocations.Add(1)
		<-joined // hold the flight open until every caller is aboard
		return resN(7), nil
	}

	var wg sync.WaitGroup
	results := make([]*algo.Result, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if joinCount.Add(1) == n {
				// Everyone is calling (or about to); release the compute
				// after a scheduling breath so late joiners register.
				go func() {
					time.Sleep(10 * time.Millisecond)
					close(joined)
				}()
			}
			results[i], _, errs[i] = g.Do(context.Background(), "key", compute)
		}(i)
	}
	wg.Wait()

	if got := invocations.Load(); got != 1 {
		t.Fatalf("compute invoked %d times for %d concurrent identical requests, want exactly 1", got, n)
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Errorf("caller %d: %v", i, errs[i])
		}
		if results[i] == nil || results[i].Reconfigs != 7 {
			t.Errorf("caller %d got %+v", i, results[i])
		}
	}
	// The result must now be cached: a later Do is a pure hit.
	res, cached, err := g.Do(context.Background(), "key", func(context.Context) (*algo.Result, error) {
		t.Error("compute ran despite cached result")
		return nil, nil
	})
	if err != nil || !cached || res.Reconfigs != 7 {
		t.Errorf("post-flight lookup: res=%+v cached=%v err=%v", res, cached, err)
	}
}

func TestGroupCacheHitSkipsCompute(t *testing.T) {
	c := New(Config{})
	g := NewGroup(c)
	want := resN(3)
	c.Put(Fingerprint("a", algo.Request{}), want)
	res, cached, err := g.Do(context.Background(), Fingerprint("a", algo.Request{}),
		func(context.Context) (*algo.Result, error) {
			t.Error("compute ran on cache hit")
			return nil, nil
		})
	if err != nil || !cached || res != want {
		t.Errorf("res=%p cached=%v err=%v", res, cached, err)
	}
}

func TestGroupErrorNotCached(t *testing.T) {
	g := NewGroup(New(Config{}))
	boom := errors.New("boom")
	calls := 0
	for i := 0; i < 2; i++ {
		_, cached, err := g.Do(context.Background(), "k", func(context.Context) (*algo.Result, error) {
			calls++
			return nil, boom
		})
		if !errors.Is(err, boom) || cached {
			t.Errorf("iteration %d: cached=%v err=%v", i, cached, err)
		}
	}
	if calls != 2 {
		t.Errorf("failed computation was cached (calls=%d)", calls)
	}
}

// TestGroupWaiterCancellation: a caller whose context ends while waiting
// gets its own context error, while remaining participants still receive
// the computed result.
func TestGroupWaiterCancellation(t *testing.T) {
	g := NewGroup(New(Config{}))
	release := make(chan struct{})
	started := make(chan struct{})
	compute := func(ctx context.Context) (*algo.Result, error) {
		close(started)
		select {
		case <-release:
			return resN(1), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	type out struct {
		res    *algo.Result
		err    error
		cached bool
	}
	leaderCh := make(chan out, 1)
	go func() {
		res, cached, err := g.Do(context.Background(), "k", compute)
		leaderCh <- out{res, err, cached}
	}()
	<-started

	// A second participant joins, then cancels.
	ctx, cancel := context.WithCancel(context.Background())
	waiterCh := make(chan out, 1)
	go func() {
		res, cached, err := g.Do(ctx, "k", compute)
		waiterCh <- out{res, err, cached}
	}()
	// Give the waiter a moment to join the flight, then cancel it.
	time.Sleep(5 * time.Millisecond)
	cancel()
	w := <-waiterCh
	if !errors.Is(w.err, context.Canceled) {
		t.Errorf("cancelled waiter: err=%v, want context.Canceled", w.err)
	}

	close(release)
	l := <-leaderCh
	if l.err != nil || l.res == nil {
		t.Errorf("leader after waiter cancel: res=%+v err=%v", l.res, l.err)
	}
}

// TestGroupAbandonedComputationIsCancelled: when every participant gives
// up, the shared computation's context is cancelled.
func TestGroupAbandonedComputationIsCancelled(t *testing.T) {
	g := NewGroup(New(Config{}))
	sawCancel := make(chan struct{})
	started := make(chan struct{})
	compute := func(ctx context.Context) (*algo.Result, error) {
		close(started)
		<-ctx.Done()
		close(sawCancel)
		return nil, ctx.Err()
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		_, _, err := g.Do(ctx, "k", compute)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Do after cancel: %v", err)
		}
		close(done)
	}()
	<-started
	cancel()
	<-done
	select {
	case <-sawCancel:
	case <-time.After(2 * time.Second):
		t.Fatal("computation context was not cancelled after the last participant left")
	}
}

func TestNilGroupRunsDirectly(t *testing.T) {
	var g *Group
	ran := false
	res, cached, err := g.Do(context.Background(), "k", func(context.Context) (*algo.Result, error) {
		ran = true
		return resN(2), nil
	})
	if !ran || cached || err != nil || res.Reconfigs != 2 {
		t.Errorf("nil group: ran=%v cached=%v err=%v res=%+v", ran, cached, err, res)
	}
}

// TestGroupCachesBeforeAnswering: once Do has answered, the plan is in the
// cache — there is no instant at which a request for the same key finds
// neither the in-flight call nor the entry and solves it a second time
// (the window a client repeating its request back to back used to hit).
func TestGroupCachesBeforeAnswering(t *testing.T) {
	c := New(Config{})
	g := NewGroup(c)
	compute := func(ctx context.Context) (*algo.Result, error) { return resN(1), nil }
	for i := 0; i < 5000; i++ {
		key := strconv.Itoa(i)
		if _, _, err := g.Do(context.Background(), key, compute); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Get(key); !ok {
			t.Fatalf("Do answered for key %q (call %d) before its plan was cached", key, i)
		}
	}
}

// TestGroupSurvivesPanickingCompute: a computation that panics on the
// group's goroutine does not end the process. The leader and every
// participant that joined get ErrComputePanic, nothing is cached, the
// panic is counted, and the next request for the key computes afresh.
func TestGroupSurvivesPanickingCompute(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Attach(&obs.Sink{Metrics: reg})
	defer obs.Detach()

	c := New(Config{})
	g := NewGroup(c)
	const n = 4
	release := make(chan struct{})
	compute := func(context.Context) (*algo.Result, error) {
		<-release
		var zero int
		return resN(1 / zero), nil
	}
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := g.Do(context.Background(), "k", compute)
			errs <- err
		}()
	}
	// Every participant is aboard once the coalesced joins are counted.
	for reg.Counter("plancache_coalesced_total").Value() < n-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, ErrComputePanic) {
			t.Errorf("participant got %v, want ErrComputePanic", err)
		}
	}
	if got := reg.Counter("plancache_compute_panics_total").Value(); got != 1 {
		t.Errorf("plancache_compute_panics_total = %d, want 1", got)
	}
	if _, ok := c.Get("k"); ok {
		t.Error("a panicked computation was cached")
	}
	res, cached, err := g.Do(context.Background(), "k", func(context.Context) (*algo.Result, error) { return resN(2), nil })
	if err != nil || cached || res.Reconfigs != 2 {
		t.Errorf("after the panic: res=%+v cached=%v err=%v", res, cached, err)
	}
}
