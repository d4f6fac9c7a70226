package plancache

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"reco/internal/algo"
	"reco/internal/matrix"
	"reco/internal/obs"
)

func mustMatrix(t testing.TB, rows [][]int64) *matrix.Matrix {
	t.Helper()
	m, err := matrix.FromRows(rows)
	if err != nil {
		t.Fatalf("FromRows: %v", err)
	}
	return m
}

func req1(t testing.TB, rows [][]int64, delta int64) algo.Request {
	return algo.Request{Demands: []*matrix.Matrix{mustMatrix(t, rows)}, Delta: delta, C: 4}
}

func TestFingerprintDistinguishes(t *testing.T) {
	base := req1(t, [][]int64{{1, 2}, {3, 4}}, 100)
	same := req1(t, [][]int64{{1, 2}, {3, 4}}, 100)
	if Fingerprint("reco-sin", base) != Fingerprint("reco-sin", same) {
		t.Error("identical requests got different fingerprints")
	}
	variants := []struct {
		name string
		alg  string
		req  algo.Request
	}{
		{"entry changed", "reco-sin", req1(t, [][]int64{{1, 2}, {3, 5}}, 100)},
		{"delta changed", "reco-sin", req1(t, [][]int64{{1, 2}, {3, 4}}, 101)},
		{"algorithm changed", "solstice", base},
		{"weights added", "reco-sin", algo.Request{Demands: base.Demands, Delta: 100, C: 4, Weights: []float64{2}}},
		{"c changed", "reco-sin", algo.Request{Demands: base.Demands, Delta: 100, C: 5}},
	}
	// Every knob is part of the key, and no two knobs share their bytes.
	for i := range algo.KnobTable {
		kn := &algo.KnobTable[i]
		req := base
		if kn.Float {
			req.Knobs = kn.SetFloat(req.Knobs, 1)
		} else {
			req.Knobs = kn.SetInt(req.Knobs, 1)
		}
		variants = append(variants, struct {
			name string
			alg  string
			req  algo.Request
		}{kn.Key + " changed", "reco-sin", req})
	}
	fp := Fingerprint("reco-sin", base)
	seen := map[string]string{}
	for _, v := range variants {
		got := Fingerprint(v.alg, v.req)
		if got == fp {
			t.Errorf("%s: fingerprint collision", v.name)
		}
		if other, dup := seen[got]; dup {
			t.Errorf("%s and %s: fingerprint collision", v.name, other)
		}
		seen[got] = v.name
	}
	// Two matrices [A, B] must not collide with one matrix that concatenates
	// their rows, and [A, B] must differ from [B, A].
	a, b := [][]int64{{1, 0}, {0, 1}}, [][]int64{{2, 0}, {0, 2}}
	ab := algo.Request{Demands: []*matrix.Matrix{mustMatrix(t, a), mustMatrix(t, b)}, Delta: 10}
	ba := algo.Request{Demands: []*matrix.Matrix{mustMatrix(t, b), mustMatrix(t, a)}, Delta: 10}
	if Fingerprint("x", ab) == Fingerprint("x", ba) {
		t.Error("matrix order ignored by fingerprint")
	}
}

func resN(n int) *algo.Result {
	return &algo.Result{CCTs: make([]int64, n), Reconfigs: n}
}

// oneShard returns n keys that land in the same shard of c, so a test can
// fill that shard's LRU past its bound.
func oneShard(c *Cache, n int) []string {
	var keys []string
	for i := 0; len(keys) < n; i++ {
		k := fmt.Sprintf("k%d", i)
		if len(keys) == 0 || c.shardFor(k) == c.shardFor(keys[0]) {
			keys = append(keys, k)
		}
	}
	return keys
}

func TestCacheGetPutLRU(t *testing.T) {
	c := New(Config{MaxEntries: 2 * shards}) // two entries a shard
	k := oneShard(c, 3)
	a, b, third := k[0], k[1], k[2]
	c.Put(a, resN(1))
	c.Put(b, resN(2))
	if _, ok := c.Get(a); !ok {
		t.Fatal("a missing")
	}
	// a is now most recent; inserting a third key evicts b.
	c.Put(third, resN(3))
	if _, ok := c.Get(b); ok {
		t.Error("b should have been evicted (LRU)")
	}
	if _, ok := c.Get(a); !ok {
		t.Error("a should have survived")
	}
	if _, ok := c.Get(third); !ok {
		t.Error("the third key should be present")
	}
	if got := c.Len(); got != 2 {
		t.Errorf("Len = %d, want 2", got)
	}
}

func TestCacheByteBoundEvicts(t *testing.T) {
	big := &algo.Result{CCTs: make([]int64, 1000)} // ~8KB
	// 20 KiB a shard, so the shard holds two of them.
	c := New(Config{MaxEntries: 100 * shards, MaxBytes: shards * 20 << 10})
	for _, k := range oneShard(c, 10) {
		c.Put(k, big)
	}
	if c.Bytes() > 20<<10 {
		t.Errorf("Bytes = %d, want <= %d", c.Bytes(), 20<<10)
	}
	if c.Len() >= 10 {
		t.Errorf("Len = %d, want evictions under the byte bound", c.Len())
	}
}

func TestCacheNilSafe(t *testing.T) {
	var c *Cache
	if _, ok := c.Get("x"); ok {
		t.Error("nil cache hit")
	}
	c.Put("x", resN(1)) // must not panic
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Error("nil cache reports non-zero size")
	}
}

// TestCacheHammer runs parallel readers and writers over a small keyspace
// with a tight bound, so hits, misses, refreshes and evictions all race,
// then checks the metric accounting against the registry.
func TestCacheHammer(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Attach(&obs.Sink{Metrics: reg})
	defer obs.Detach()

	c := New(Config{MaxEntries: 32, MaxBytes: 1 << 20})
	const (
		workers = 8
		ops     = 2000
		keys    = 100
	)
	var wg sync.WaitGroup
	var hits, misses [workers]int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("k%d", rng.Intn(keys))
				if _, ok := c.Get(key); ok {
					hits[w]++
				} else {
					misses[w]++
					c.Put(key, resN(rng.Intn(16)+1))
				}
			}
		}(w)
	}
	wg.Wait()

	if got := c.Len(); got > 32 {
		t.Errorf("Len = %d, exceeds MaxEntries 32", got)
	}
	var wantHits, wantMisses int64
	for w := 0; w < workers; w++ {
		wantHits += hits[w]
		wantMisses += misses[w]
	}
	if got := reg.Counter("plancache_hits_total").Value(); got != wantHits {
		t.Errorf("hits_total = %d, want %d", got, wantHits)
	}
	if got := reg.Counter("plancache_misses_total").Value(); got != wantMisses {
		t.Errorf("misses_total = %d, want %d", got, wantMisses)
	}
	if wantHits+wantMisses != workers*ops {
		t.Errorf("accounting: hits+misses = %d, want %d", wantHits+wantMisses, workers*ops)
	}
	// Under pressure (100 keys, 32 slots) evictions must have happened, and
	// the entries gauge must agree with the live count.
	if ev := reg.Counter("plancache_evictions_total").Value(); ev == 0 {
		t.Error("no evictions under pressure")
	}
	if g := reg.Gauge("plancache_entries").Value(); int(g) != c.Len() {
		t.Errorf("entries gauge = %v, want %d", g, c.Len())
	}
	if g := reg.Gauge("plancache_bytes").Value(); int64(g) != c.Bytes() {
		t.Errorf("bytes gauge = %v, want %d", g, c.Bytes())
	}
	if n := reg.Histogram("plancache_lookup_seconds", nil).Count(); n != int64(workers*ops) {
		t.Errorf("lookup histogram count = %d, want %d", n, workers*ops)
	}
}
