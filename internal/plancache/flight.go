package plancache

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"reco/internal/algo"
	"reco/internal/obs"
)

// Group combines the plan cache with singleflight request coalescing:
// concurrent Do calls for one key share a single computation instead of
// solving the same instance N times, and a completed computation populates
// the cache for everyone who arrives later.
//
// Cancellation is reference-counted. The shared computation runs on its own
// context, which is cancelled only when every participant — the caller that
// started it and every caller that joined — has given up. A participant
// whose own context ends gets that context's error immediately without
// disturbing the others, so one impatient client cannot poison a result
// that other clients are still waiting for.
//
// With an obs sink attached, Group counts coalesced joins
// (plancache_coalesced_total), started computations
// (plancache_computes_total) and computations that panicked
// (plancache_compute_panics_total).
type Group struct {
	cache *Cache

	mu       sync.Mutex
	inflight map[string]*call
}

type call struct {
	cancel context.CancelFunc
	done   chan struct{}
	refs   int // participants still waiting; guarded by Group.mu
	res    *algo.Result
	err    error
}

// ErrComputePanic reports a computation that panicked. Do recovers the
// panic, since compute runs on a goroutine of its own where no caller's
// recovery can reach it and a panic would end the process; every
// participant gets this error, and nothing is cached.
var ErrComputePanic = errors.New("plancache: computation panicked")

// NewGroup returns a Group coalescing computations in front of cache. A nil
// cache disables caching but keeps coalescing.
func NewGroup(cache *Cache) *Group {
	return &Group{cache: cache, inflight: make(map[string]*call)}
}

// Do returns the result for key, taking it from the cache when present,
// joining an in-flight computation for the same key when one exists, and
// otherwise running compute exactly once and caching its result. The
// second return reports whether the result came from the cache without any
// computation on this call's part (an in-flight join reports false: work
// was underway, just not duplicated).
//
// compute receives a context detached from ctx's cancellation (the
// computation outlives any single caller) that is cancelled once no
// participant remains. Do itself honors ctx: if ctx ends while waiting, Do
// returns ctx.Err() immediately.
//
// A nil Group runs compute directly — callers can hold an optional Group
// without branching.
func (g *Group) Do(ctx context.Context, key string, compute func(ctx context.Context) (*algo.Result, error)) (*algo.Result, bool, error) {
	if g == nil {
		res, err := compute(ctx)
		return res, false, err
	}
	if res, ok := g.cache.Get(key); ok {
		return res, true, nil
	}

	g.mu.Lock()
	if c, ok := g.inflight[key]; ok {
		c.refs++
		g.mu.Unlock()
		obs.Current().Inc("plancache_coalesced_total")
		return g.wait(ctx, key, c)
	}
	// Leader: start the shared computation on a context that survives the
	// leader being cancelled but dies when the last participant leaves.
	cctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	c := &call{cancel: cancel, done: make(chan struct{}), refs: 1}
	g.inflight[key] = c
	g.mu.Unlock()
	obs.Current().Inc("plancache_computes_total")

	go func() {
		res, err := recovered(cctx, compute)
		// Cache before leaving the in-flight table: a request that arrives
		// from here on finds the call or the entry, never neither — which
		// would be a second solve of a plan just computed.
		if err == nil {
			g.cache.Put(key, res)
		}
		g.mu.Lock()
		c.res, c.err = res, err
		delete(g.inflight, key)
		g.mu.Unlock()
		close(c.done)
		cancel()
	}()
	return g.wait(ctx, key, c)
}

// recovered runs compute, turning a panic into ErrComputePanic.
func recovered(ctx context.Context, compute func(ctx context.Context) (*algo.Result, error)) (res *algo.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			obs.Current().Inc("plancache_compute_panics_total")
			res, err = nil, fmt.Errorf("%w: %v", ErrComputePanic, p)
		}
	}()
	return compute(ctx)
}

// wait blocks until the shared call completes or ctx ends, maintaining the
// call's participant count.
func (g *Group) wait(ctx context.Context, key string, c *call) (*algo.Result, bool, error) {
	select {
	case <-c.done:
		return c.res, false, c.err
	case <-ctx.Done():
		g.mu.Lock()
		c.refs--
		abandoned := c.refs == 0
		g.mu.Unlock()
		if abandoned {
			// Last participant gone: stop the computation. If it already
			// finished, cancel is a no-op; its result still lands in the
			// cache for future requests.
			c.cancel()
		}
		return nil, false, ctx.Err()
	}
}
