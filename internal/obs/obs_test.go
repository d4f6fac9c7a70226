package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Errorf("Value = %d, want 5", got)
	}
	var nilC *Counter
	nilC.Inc() // must not panic
	if nilC.Value() != 0 {
		t.Error("nil counter has a value")
	}
}

func TestGaugeBasics(t *testing.T) {
	var g Gauge
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Errorf("Value = %v, want 1.5", got)
	}
	var nilG *Gauge
	nilG.Set(1)
	nilG.Add(1)
	if nilG.Value() != 0 {
		t.Error("nil gauge has a value")
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	// 100 samples uniform over (0, 4]: 25 per bucket 1,2 and 50 in (2,4].
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.04)
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d, want 100", h.Count())
	}
	if want := 202.0; math.Abs(h.Sum()-want) > 1e-9 {
		t.Errorf("Sum = %v, want %v", h.Sum(), want)
	}
	// Exact interpolation: the median rank (50) sits at the end of the
	// (1,2] bucket, so the estimate is its upper bound.
	if got := h.Quantile(0.5); math.Abs(got-2) > 1e-9 {
		t.Errorf("Quantile(0.5) = %v, want 2", got)
	}
	if got := h.Quantile(1); math.Abs(got-4) > 1e-9 {
		t.Errorf("Quantile(1) = %v, want 4", got)
	}
	// Overflow bucket clamps to the largest bound.
	h.Observe(100)
	if got := h.Quantile(1); got != 8 {
		t.Errorf("Quantile(1) with overflow = %v, want 8", got)
	}
}

func TestHistogramEmptyAndNil(t *testing.T) {
	h := NewHistogram(nil)
	if h.Quantile(0.5) != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("empty histogram not zero-valued")
	}
	var nilH *Histogram
	nilH.Observe(1)
	nilH.ObserveDuration(time.Second)
	if nilH.Quantile(0.5) != 0 {
		t.Error("nil histogram quantile non-zero")
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x_total")
	c2 := r.Counter("x_total")
	if c1 != c2 {
		t.Error("Counter did not return the same instance")
	}
	h1 := r.Histogram("h_seconds", []float64{1, 2})
	h2 := r.Histogram("h_seconds", nil) // bounds ignored after creation
	if h1 != h2 {
		t.Error("Histogram did not return the same instance")
	}
	defer func() {
		if recover() == nil {
			t.Error("type mismatch did not panic")
		}
	}()
	r.Gauge("x_total")
}

func TestRegistryNil(t *testing.T) {
	var r *Registry
	r.Counter("a").Inc()
	r.Gauge("b").Set(1)
	r.Histogram("c", nil).Observe(1)
	r.SetHelp("a", "help")
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestLabelFormatting(t *testing.T) {
	got := L("req_total", "method", "GET", "path", `a"b\c`)
	want := `req_total{method="GET",path="a\"b\\c"}`
	if got != want {
		t.Errorf("L = %q, want %q", got, want)
	}
	if L("plain") != "plain" {
		t.Error("L without labels changed the family")
	}
	if family(got) != "req_total" {
		t.Errorf("family = %q", family(got))
	}
	if labels("plain") != "" {
		t.Error("labels of unlabelled id not empty")
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.SetHelp("req_total", "requests served")
	r.Counter(L("req_total", "code", "200")).Add(3)
	r.Counter(L("req_total", "code", "500")).Add(1)
	r.Gauge("inflight").Set(2)
	h := r.Histogram(L("lat_seconds", "ep", "x"), []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP req_total requests served",
		"# TYPE req_total counter",
		`req_total{code="200"} 3`,
		`req_total{code="500"} 1`,
		"# TYPE inflight gauge",
		"inflight 2",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{ep="x",le="0.1"} 1`,
		`lat_seconds_bucket{ep="x",le="1"} 2`,
		`lat_seconds_bucket{ep="x",le="+Inf"} 3`,
		`lat_seconds_sum{ep="x"} 5.55`,
		`lat_seconds_count{ep="x"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// A family's TYPE line must precede its samples.
	if strings.Index(out, "# TYPE req_total") > strings.Index(out, `req_total{code="200"}`) {
		t.Error("TYPE line after samples")
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(7)
	r.Gauge("g").Set(1.5)
	h := r.Histogram("h", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)

	var b bytes.Buffer
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var out map[string]json.RawMessage
	if err := json.Unmarshal(b.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if string(out["c"]) != "7" {
		t.Errorf("c = %s", out["c"])
	}
	var hist histogramJSON
	if err := json.Unmarshal(out["h"], &hist); err != nil {
		t.Fatal(err)
	}
	if hist.Count != 2 || hist.Sum != 2 {
		t.Errorf("histogram JSON = %+v", hist)
	}
}

func TestSinkDetachedHelpers(t *testing.T) {
	var s *Sink
	s.Count("a", 1)
	s.Inc("a")
	s.GaugeSet("b", 1)
	s.GaugeAdd("b", 1)
	s.Observe("c", 1)
	s.ObserveDuration("c", time.Second)
	s.TickSpan("t", "n", 0, 1, nil)
	s.TickInstant("t", "n", 0, nil)
	end := s.Stage("x")
	end()
	s.SpanBegin("cat", "n")(nil)
}

func TestAttachCurrentDetach(t *testing.T) {
	t.Cleanup(Detach)
	if Current() != nil {
		t.Fatal("sink attached at test start")
	}
	s := &Sink{Metrics: NewRegistry()}
	Attach(s)
	if Current() != s {
		t.Error("Attach did not install the sink")
	}
	Current().Inc("hits_total")
	if s.Metrics.Counter("hits_total").Value() != 1 {
		t.Error("helper did not reach the registry")
	}
	Detach()
	if Current() != nil {
		t.Error("Detach left the sink attached")
	}
}

func TestSinkStageRecordsHistogram(t *testing.T) {
	s := &Sink{Metrics: NewRegistry(), Trace: NewTracerCap(0)}
	end := s.Stage("stuff")
	end()
	id := L("pipeline_stage_seconds", "stage", "stuff")
	if s.Metrics.Histogram(id, nil).Count() != 1 {
		t.Error("stage duration not observed")
	}
	if s.Trace.Len() != 1 {
		t.Errorf("trace has %d events, want 1", s.Trace.Len())
	}
}

// TestRegistryConcurrency hammers one registry from many goroutines —
// get-or-create races, counter adds, gauge CAS, histogram observes — while
// exporters render concurrently. Run under -race this proves the registry
// is data-race free; the final counts prove no increments were lost.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	const perWorker = 2000
	var wg sync.WaitGroup
	wg.Add(workers + 2)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("hits_total").Inc()
				r.Gauge("depth").Add(1)
				r.Gauge("depth").Add(-1)
				r.Histogram("lat_seconds", nil).Observe(float64(i%10) * 1e-4)
			}
		}()
	}
	for e := 0; e < 2; e++ {
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var b bytes.Buffer
				if err := r.WritePrometheus(&b); err != nil {
					t.Error(err)
					return
				}
				if err := r.WriteJSON(&b); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits_total").Value(); got != workers*perWorker {
		t.Errorf("hits_total = %d, want %d (lost updates)", got, workers*perWorker)
	}
	if got := r.Gauge("depth").Value(); got != 0 {
		t.Errorf("depth = %v, want 0", got)
	}
	if got := r.Histogram("lat_seconds", nil).Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

func TestLogBuckets(t *testing.T) {
	b := LogBuckets(1e-6, 2, 4)
	want := []float64{1e-6, 2e-6, 4e-6, 8e-6}
	if len(b) != len(want) {
		t.Fatalf("len = %d, want %d", len(b), len(want))
	}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-18 {
			t.Errorf("bucket %d = %v, want %v", i, b[i], want[i])
		}
	}
	for _, bad := range []func(){
		func() { LogBuckets(0, 2, 4) },
		func() { LogBuckets(1e-6, 1, 4) },
		func() { LogBuckets(1e-6, 2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid LogBuckets args did not panic")
				}
			}()
			bad()
		}()
	}
}

func TestLogBucketsResolveMicroseconds(t *testing.T) {
	// A µs-scale sample must not share a bucket with a ms-scale sample, which
	// is exactly what DefBuckets (first bound 10µs) cannot guarantee.
	h := NewHistogram(LogBuckets(1e-6, 2, 24))
	h.Observe(3e-6)
	p50 := h.Quantile(0.5)
	if p50 < 1e-6 || p50 > 8e-6 {
		t.Errorf("p50 = %v, want within a factor-2 bucket of 3µs", p50)
	}
	h2 := NewHistogram(LogBuckets(1e-6, 2, 24))
	for i := 0; i < 100; i++ {
		h2.Observe(2e-3) // 2ms
	}
	if q := h2.Quantile(0.5); q < 1e-3 || q > 4e-3 {
		t.Errorf("ms-scale p50 = %v, want ~2ms", q)
	}
}
