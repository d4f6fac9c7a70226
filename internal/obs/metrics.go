// Package obs is the repository's observability subsystem: a concurrent
// metrics registry (counters, gauges, fixed-bucket streaming histograms),
// span-style stage timing for the scheduling pipeline, and exporters for
// the Prometheus text format, expvar-style JSON, and Chrome trace-event
// JSON (loadable in chrome://tracing or https://ui.perfetto.dev).
//
// Instrumented code never talks to a registry directly; it reads the
// process-wide Sink via Current() and calls its nil-safe helpers. With no
// sink attached — the default — every helper is a single atomic pointer
// load and a branch, so instrumentation stays in hot paths permanently
// instead of behind build tags. Attaching a sink (recod at startup,
// recosim under -tracefile, tests) turns the same call sites into live
// counters, histograms, and trace events.
//
// Everything is stdlib-only. The registry is safe for concurrent use and
// stays clean under the race detector: counters and gauges are single
// atomics, histograms are per-bucket atomics, and the registry itself is a
// sync.Map keyed by the fully-labelled series id.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; all methods are safe on a nil receiver (no-ops), so instrumented
// code can hold possibly-absent handles without branching.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n < 0 is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down, stored as float64 bits. The
// zero value is ready to use; methods are nil-safe no-ops.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by v (negative v decrements).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// DefBuckets are the default histogram bucket upper bounds in seconds,
// spanning 10µs (a counter bump) to 10s (a full experiment regeneration).
var DefBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// TickBuckets are histogram bounds for simulated-time quantities (CCTs,
// establishment durations), spanning one reconfiguration delay (1e2 ticks)
// to a very long run (~1e8 ticks) at constant ×2 relative resolution.
var TickBuckets = LogBuckets(1e2, 2, 21)

// LogBuckets returns n exponentially spaced histogram bucket upper bounds
// starting at min, each factor times the previous: min, min·factor,
// min·factor², …. Log-scale bounds keep relative resolution constant, which
// is what API latencies spanning µs (a cache hit) to seconds (a cold LP
// solve) need; the fixed DefBuckets would collapse everything below 10µs
// into one bucket. min must be positive, factor > 1 and n ≥ 1 — violations
// are programmer errors and panic.
func LogBuckets(min, factor float64, n int) []float64 {
	if min <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("obs: LogBuckets(%v, %v, %d): need min > 0, factor > 1, n >= 1", min, factor, n))
	}
	out := make([]float64, n)
	v := min
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Histogram is a fixed-bucket streaming histogram over non-negative
// observations. Bucket counts are independent atomics (not cumulative;
// exporters cumulate), so Observe is wait-free except for the float sum,
// which is a CAS loop. Methods are nil-safe no-ops.
type Histogram struct {
	bounds  []float64 // sorted upper bounds; observations > last go to overflow
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// NewHistogram returns a histogram over the given sorted upper bounds; nil
// or empty bounds mean DefBuckets.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bucket whose bound is >= v; linear scan beats binary search at
	// these bucket counts and is branch-predictable for clustered samples.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(d.Seconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// snapshot returns per-bucket counts (non-cumulative, overflow last) and
// the total. Concurrent Observes may straddle the reads; the snapshot is
// internally consistent enough for monitoring (counts never decrease).
func (h *Histogram) snapshot() (buckets []int64, total int64) {
	buckets = make([]int64, len(h.buckets))
	for i := range h.buckets {
		c := h.buckets[i].Load()
		buckets[i] = c
		total += c
	}
	return buckets, total
}

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1) by linear interpolation
// within the bucket holding the target rank. The first bucket interpolates
// from zero (observations are assumed non-negative); ranks landing in the
// overflow bucket return the largest bound, an underestimate by design.
// With no observations Quantile returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	buckets, total := h.snapshot()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var seen float64
	for i, c := range buckets {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			if i >= len(h.bounds) {
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			frac := (rank - seen) / float64(c)
			return lo + frac*(h.bounds[i]-lo)
		}
		seen += float64(c)
	}
	return h.bounds[len(h.bounds)-1]
}

// Registry is a concurrent collection of named metrics. Series are keyed
// by their fully-labelled id (e.g. `http_requests_total{endpoint="GET /"}`
// — see L); reads and get-or-create are lock-free via sync.Map. The zero
// value is ready to use; methods are nil-safe (returning nil metrics whose
// own methods are no-ops).
type Registry struct {
	metrics sync.Map // id -> *Counter | *Gauge | *Histogram
	help    sync.Map // family -> string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter returns the counter registered under id, creating it on first
// use. Panics if id is already registered as a different metric type.
func (r *Registry) Counter(id string) *Counter {
	if r == nil {
		return nil
	}
	if v, ok := r.metrics.Load(id); ok {
		return mustCounter(id, v)
	}
	v, _ := r.metrics.LoadOrStore(id, &Counter{})
	return mustCounter(id, v)
}

// Gauge returns the gauge registered under id, creating it on first use.
// Panics if id is already registered as a different metric type.
func (r *Registry) Gauge(id string) *Gauge {
	if r == nil {
		return nil
	}
	if v, ok := r.metrics.Load(id); ok {
		return mustGauge(id, v)
	}
	v, _ := r.metrics.LoadOrStore(id, &Gauge{})
	return mustGauge(id, v)
}

// Histogram returns the histogram registered under id, creating it over
// bounds (nil: DefBuckets) on first use; later calls ignore bounds and
// return the existing histogram. Panics if id is registered as a
// different metric type.
func (r *Registry) Histogram(id string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	if v, ok := r.metrics.Load(id); ok {
		return mustHistogram(id, v)
	}
	v, _ := r.metrics.LoadOrStore(id, NewHistogram(bounds))
	return mustHistogram(id, v)
}

// SetHelp attaches a help string to a metric family (the id with any label
// block stripped), emitted as # HELP by the Prometheus exporter.
func (r *Registry) SetHelp(family, text string) {
	if r == nil {
		return
	}
	r.help.Store(family, text)
}

// ids returns all registered series ids, sorted.
func (r *Registry) ids() []string {
	var out []string
	r.metrics.Range(func(k, _ any) bool {
		out = append(out, k.(string))
		return true
	})
	sort.Strings(out)
	return out
}

func mustCounter(id string, v any) *Counter {
	c, ok := v.(*Counter)
	if !ok {
		panic("obs: metric " + id + " is not a counter")
	}
	return c
}

func mustGauge(id string, v any) *Gauge {
	g, ok := v.(*Gauge)
	if !ok {
		panic("obs: metric " + id + " is not a gauge")
	}
	return g
}

func mustHistogram(id string, v any) *Histogram {
	h, ok := v.(*Histogram)
	if !ok {
		panic("obs: metric " + id + " is not a histogram")
	}
	return h
}

// L renders a series id from a metric family and label key/value pairs:
// L("x_total", "alg", "reco") == `x_total{alg="reco"}`. Values are escaped
// per the Prometheus text format; keys are assumed to be valid label
// names. With no labels it returns the family unchanged.
func L(family string, kv ...string) string {
	if len(kv) == 0 {
		return family
	}
	var b strings.Builder
	b.WriteString(family)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// family strips the label block from a series id.
func family(id string) string {
	if i := strings.IndexByte(id, '{'); i >= 0 {
		return id[:i]
	}
	return id
}

// labels returns the label block of a series id without braces, or "".
func labels(id string) string {
	i := strings.IndexByte(id, '{')
	if i < 0 {
		return ""
	}
	return strings.TrimSuffix(id[i+1:], "}")
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}
