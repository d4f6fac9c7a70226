package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"

	"reco/internal/matrix"
	"reco/internal/obs"
	"reco/internal/workload"
)

// benchBody is one encoded single-coflow request cut open at a non-zero
// cell, so a benchmark loop builds a distinct request (new fingerprint, same
// work) with a splice instead of a JSON encode.
type benchBody struct {
	prefix, suffix []byte
	base           int64
	nnz            int
}

func (t benchBody) bump(dst []byte, i int) []byte {
	dst = append(dst[:0], t.prefix...)
	dst = strconv.AppendInt(dst, t.base+int64(i), 10)
	return append(dst, t.suffix...)
}

// benchPool is how many matrices of each class a benchmark cycles through.
// The sparse class mixes single-port coflows with small M2M rectangles that
// reach BvN, so it takes more draws to sample; a normal or dense matrix
// costs about what the next one does.
var benchPool = map[workload.Class]int{workload.Sparse: 32, workload.Normal: 4, workload.Dense: 4}

// benchBodies draws pool matrices of each density class from the Table I/II
// generator at n ports, the way the repository benchmark draws its pools.
func benchBodies(tb testing.TB, n int) map[workload.Class][]benchBody {
	rng := rand.New(rand.NewSource(int64(n)))
	out := map[workload.Class][]benchBody{}
	for missing := true; missing; {
		coflows, err := workload.GenerateWith(rng, workload.GenConfig{N: n, NumCoflows: 24})
		if err != nil {
			tb.Fatal(err)
		}
		for _, c := range coflows {
			if class := workload.Classify(c.Demand); len(out[class]) < benchPool[class] {
				out[class] = append(out[class], newBenchBody(tb, c.Demand))
			}
		}
		missing = false
		for class, want := range benchPool {
			missing = missing || len(out[class]) < want
		}
	}
	return out
}

func newBenchBody(tb testing.TB, d *matrix.Matrix) benchBody {
	rows, base := benchRows(d, true)
	return cutBody(tb, SingleRequest{Demand: rows, Delta: 100}, base, d.NonZeros())
}

// benchRows returns d's rows and, when mark is set, replaces its first
// non-zero cell with a sentinel no demand reaches and returns that cell's
// value.
func benchRows(d *matrix.Matrix, mark bool) (rows [][]int64, base int64) {
	n := d.N()
	rows = make([][]int64, n)
	for i := range rows {
		rows[i] = make([]int64, n)
		for j := range rows[i] {
			rows[i][j] = d.At(i, j)
			if mark && base == 0 && rows[i][j] > 0 {
				base, rows[i][j] = rows[i][j], math.MaxInt64
			}
		}
	}
	return rows, base
}

// cutBody encodes a request holding benchRows' sentinel and cuts it open
// there.
func cutBody(tb testing.TB, wire any, base int64, nnz int) benchBody {
	body, err := json.Marshal(wire)
	if err != nil {
		tb.Fatal(err)
	}
	mark := []byte(strconv.FormatInt(math.MaxInt64, 10))
	at := bytes.Index(body, mark)
	return benchBody{prefix: body[:at], suffix: body[at+len(mark):], base: base, nnz: nnz}
}

// discard is the cheapest ResponseWriter: the benchmark times the handler,
// not a recorder's buffer.
type discard struct{ h http.Header }

func (d discard) Header() http.Header         { return d.h }
func (d discard) Write(b []byte) (int, error) { return len(b), nil }
func (d discard) WriteHeader(int)             {}

// BenchmarkServeSingle times POST /v1/schedule/single in process — body
// read, decode, fingerprint, plan-cache miss, Reco-Sin, executor, encode —
// on distinct requests of each density class at growing port counts: the
// asymptotics the repository benchmark's fixed n cannot show. nnz/op is the
// mean support of the requests served; BenchmarkDecodeSingle is the
// parser-only baseline to subtract, since the dense wire form makes the
// parser read O(n²) bytes whatever the support.
func BenchmarkServeSingle(b *testing.B) {
	benchSingle(b, func(b *testing.B, bodies []benchBody) {
		serve(b, "/v1/schedule/single", bodies)
	})
}

// BenchmarkServeMulti is BenchmarkServeSingle's multi-coflow counterpart:
// POST /v1/schedule/multi with Reco-Mul (PrimalDual ordering, packet list
// schedule, Algorithm 2) on distinct requests of the repository benchmark's
// multi_batch shape — n = 32, 16 consecutive coflows of one Table I/II
// workload, δ = 100, c = 4. nnz/op is the mean number of flows per batch.
func BenchmarkServeMulti(b *testing.B) {
	bodies, nnz := multiBodies(b)
	b.ReportAllocs()
	serve(b, "/v1/schedule/multi", bodies)
	b.ReportMetric(float64(nnz)/float64(len(bodies)), "nnz/op")
}

// multiBodies returns BenchmarkServeMulti's batches and their total number
// of flows.
func multiBodies(tb testing.TB) (bodies []benchBody, nnz int) {
	coflows, err := workload.GenerateWith(rand.New(rand.NewSource(32)), workload.GenConfig{N: 32})
	if err != nil {
		tb.Fatal(err)
	}
	const perBatch = 16
	bodies = make([]benchBody, len(coflows)/perBatch)
	for t := range bodies {
		batch := coflows[t*perBatch : (t+1)*perBatch]
		demands := make([][][]int64, perBatch)
		flows := 0
		for k, c := range batch {
			demands[k], _ = benchRows(c.Demand, false)
			flows += c.Demand.NonZeros()
		}
		var base int64
		demands[0], base = benchRows(batch[0].Demand, true)
		bodies[t] = cutBody(tb, MultiRequest{Demands: demands, Delta: 100, C: 4}, base, flows)
		nnz += flows
	}
	return bodies, nnz
}

// BenchmarkServeWarm is the in-process twin of the repository benchmark's
// single_warm workload: a fresh server primed with the dense n = 64 bodies
// benchBodies draws, then posted the same bodies unbumped, so every request
// is a plan-cache hit — decode, fingerprint, cache read and encode, no
// solver.
func BenchmarkServeWarm(b *testing.B) {
	srv := NewServer(Options{})
	defer srv.Close()
	h := srv.Handler()
	w := discard{h: http.Header{}}
	var bodies [][]byte
	reg := obs.NewRegistry()
	obs.Attach(&obs.Sink{Metrics: reg})
	for _, t := range benchBodies(b, 64)[workload.Dense] {
		bodies = append(bodies, t.bump(nil, 0))
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/schedule/single", bytes.NewReader(bodies[len(bodies)-1])))
	}
	obs.Detach()
	if got := int(reg.Gauge("plancache_entries").Value()); got != len(bodies) {
		b.Fatalf("%d plans cached after priming with %d bodies", got, len(bodies))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/schedule/single", bytes.NewReader(bodies[i%len(bodies)])))
	}
}

// serve posts distinct bumps of bodies to path on a fresh server.
func serve(b *testing.B, path string, bodies []benchBody) {
	srv := NewServer(Options{})
	defer srv.Close()
	h := srv.Handler()
	w := discard{h: http.Header{}}
	var body []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body = bodies[i%len(bodies)].bump(body, i)
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	}
}

// BenchmarkDecodeSingle times the request parser alone on the bodies
// BenchmarkServeSingle posts.
func BenchmarkDecodeSingle(b *testing.B) {
	benchSingle(b, func(b *testing.B, bodies []benchBody) {
		var body []byte
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			body = bodies[i%len(bodies)].bump(body, i)
			if _, err := decodeSingle(body); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func benchSingle(b *testing.B, run func(*testing.B, []benchBody)) {
	for _, n := range []int{64, 128, 256, 512} {
		var pools map[workload.Class][]benchBody // drawn by the first class that runs
		for _, class := range []workload.Class{workload.Sparse, workload.Normal, workload.Dense} {
			b.Run(fmt.Sprintf("n=%d/class=%s", n, class), func(b *testing.B) {
				if pools == nil {
					pools = benchBodies(b, n)
				}
				bodies := pools[class]
				nnz := 0
				for _, t := range bodies {
					nnz += t.nnz
				}
				b.ReportAllocs()
				run(b, bodies)
				b.ReportMetric(float64(nnz)/float64(len(bodies)), "nnz/op")
			})
		}
	}
}

// raceBuild is set in a -race build (race_test.go).
var raceBuild bool

// TestServeBytesAndAllocs holds each request shape the repository
// benchmark serves to a budget of allocations and of bytes allocated per
// request (runtime.MemStats Mallocs and TotalAlloc, at GOMAXPROCS 1 as
// testing.AllocsPerRun measures, priming included): a distinct sparse n = 128 or dense n = 64
// single-coflow request, a distinct 16-coflow n = 32 batch, a plan-cache
// hit on a dense n = 64 request, and a leg that alternates sparse n = 64
// and n = 128 requests. Every request but the hits misses the plan cache,
// so it decodes, schedules, caches and encodes; the budgets are what the
// pooled request path measured plus about a quarter. The bytes are mostly
// what the pools save: a request whose n² demand, regularized copy or
// executor residual is allocated afresh again overruns its row, so does a
// batch whose packet schedule S_p or sort scratch is, and so does the mixed
// leg when one size class answers another's requests. It is
// skipped under -race, whose sync.Pool drops pooled matrices, engines and
// buffers at random.
func TestServeBytesAndAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts under -race measure the detector's sync.Pool")
	}
	sparse128 := benchBodies(t, 128)[workload.Sparse]
	pools64 := benchBodies(t, 64)
	multi, _ := multiBodies(t)
	var mixed []benchBody
	for k, b := range pools64[workload.Sparse] {
		mixed = append(mixed, b, sparse128[k%len(sparse128)])
	}
	single, batch := "/v1/schedule/single", "/v1/schedule/multi"
	// Measured with the matrix pool (without it), bytes and allocations:
	// sparse 21 154 / 43.3 (181 028 / 46.0), dense 119 210 / 41.9 (184 919 /
	// 45.7), warm 5 593 / 21.1 (38 453 / 23.1), mixed 15 960 / 42.5
	// (197 612 / 49.2). multi measured 83 112 / 110.7 with Reco-Mul's packet
	// schedule, pseudo-flows, wave and sort scratch pooled as well (234 845
	// / 134.3 with only the matrix pool, 367 427 / 166.0 with neither).
	for _, tc := range []struct {
		name   string
		path   string
		bodies []benchBody
		warm   bool // post the bodies unbumped after priming: plan-cache hits
		allocs float64
		bytes  float64
	}{
		{"sparse/n=128", single, sparse128, false, 54, 27_000},
		{"dense/n=64", single, pools64[workload.Dense], false, 52, 149_000},
		{"multi", batch, multi, false, 138, 104_000},
		{"warm/n=64", single, pools64[workload.Dense], true, 26, 7_000},
		{"mixed-n/sparse", single, mixed, false, 53, 20_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// One P from priming on: what a request puts in its P's private
			// pool slot is out of reach once that P is gone.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			srv := NewServer(Options{})
			defer srv.Close()
			h := srv.Handler()
			w := discard{h: http.Header{}}
			var body []byte
			i := 0
			post := func() {
				if tc.warm {
					body = tc.bodies[i%len(tc.bodies)].bump(body, 0)
				} else {
					body = tc.bodies[i%len(tc.bodies)].bump(body, i)
				}
				i++
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, tc.path, bytes.NewReader(body)))
			}
			// Priming fills the pools (and, for the warm leg, the cache).
			for range tc.bodies {
				post()
			}
			if tc.warm {
				i = 0
			}
			allocs, bytes := perRequest(max(40, 2*len(tc.bodies)), post)
			t.Logf("%.1f allocations, %.0f bytes per request", allocs, bytes)
			if allocs > tc.allocs {
				t.Errorf("%.1f allocations per request, budget %.0f", allocs, tc.allocs)
			}
			if bytes > tc.bytes {
				t.Errorf("%.0f bytes per request, budget %.0f", bytes, tc.bytes)
			}
		})
	}
}

// perRequest runs f runs times and returns the mean allocations and bytes
// allocated per run. It collects first, so a short run sees no collection:
// two in a row would empty the pools (sync.Pool keeps what it holds through
// one).
func perRequest(runs int, f func()) (allocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
