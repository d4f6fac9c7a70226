package obs

import (
	"sync/atomic"
	"time"
)

// Sink bundles the destinations instrumentation writes to. Either field
// may be nil: recod attaches metrics only, recosim -tracefile attaches
// both, tests attach whatever they assert on.
type Sink struct {
	// Metrics receives counters, gauges, and histograms.
	Metrics *Registry
	// Trace receives wall-clock spans and simulated-tick events.
	Trace *Tracer
}

// active is the process-wide sink. Instrumented call sites load it once
// per operation; with nothing attached the whole instrumentation cost is
// this load and a nil check.
var active atomic.Pointer[Sink]

// Attach installs s as the process-wide sink. Attach(nil) detaches.
// Attaching replaces any previous sink; in-flight operations that already
// captured the old sink keep writing to it, which is harmless.
func Attach(s *Sink) {
	active.Store(s)
}

// Detach removes the process-wide sink.
func Detach() {
	active.Store(nil)
}

// Current returns the attached sink, or nil. Callers on a hot path should
// capture it once per operation rather than per event.
func Current() *Sink {
	return active.Load()
}

// Count adds n to the named counter. Nil-safe on s and on either field.
func (s *Sink) Count(id string, n int64) {
	if s == nil {
		return
	}
	s.Metrics.Counter(id).Add(n)
}

// Inc adds one to the named counter.
func (s *Sink) Inc(id string) { s.Count(id, 1) }

// GaugeSet sets the named gauge.
func (s *Sink) GaugeSet(id string, v float64) {
	if s == nil {
		return
	}
	s.Metrics.Gauge(id).Set(v)
}

// GaugeAdd adjusts the named gauge.
func (s *Sink) GaugeAdd(id string, v float64) {
	if s == nil {
		return
	}
	s.Metrics.Gauge(id).Add(v)
}

// Observe records a sample into the named histogram (default buckets).
func (s *Sink) Observe(id string, v float64) {
	if s == nil {
		return
	}
	s.Metrics.Histogram(id, nil).Observe(v)
}

// ObserveDuration records d in seconds into the named histogram.
func (s *Sink) ObserveDuration(id string, d time.Duration) {
	s.Observe(id, d.Seconds())
}

// ObserveBuckets records a sample into the named histogram, created over
// bounds on first use (e.g. TickBuckets for simulated-time quantities).
func (s *Sink) ObserveBuckets(id string, bounds []float64, v float64) {
	if s == nil {
		return
	}
	s.Metrics.Histogram(id, bounds).Observe(v)
}

// stageNop is the shared end function for detached stages.
func stageNop() {}

// Stage opens a pipeline-stage timing span named stage and returns its end
// function. The span lands on the tracer (category "stage") when one is
// attached, and its duration is observed into the
// pipeline_stage_seconds{stage="..."} histogram when metrics are attached.
// With s == nil the returned function is a shared no-op and no clock is
// read.
func (s *Sink) Stage(stage string) func() {
	if s == nil {
		return stageNop
	}
	var endTrace func(map[string]any)
	if s.Trace != nil {
		endTrace = s.Trace.Begin("stage", stage)
	}
	var start time.Time
	if s.Metrics != nil {
		start = time.Now()
	}
	return func() {
		if endTrace != nil {
			endTrace(nil)
		}
		if s.Metrics != nil {
			s.Metrics.Histogram(L("pipeline_stage_seconds", "stage", stage), nil).
				ObserveDuration(time.Since(start))
		}
	}
}

// TickSpan forwards a simulated-time span to the attached tracer.
func (s *Sink) TickSpan(track, name string, start, end int64, args map[string]any) {
	if s == nil {
		return
	}
	s.Trace.TickSpan(track, name, start, end, args)
}

// TickInstant forwards a simulated-time instant to the attached tracer.
func (s *Sink) TickInstant(track, name string, tick int64, args map[string]any) {
	if s == nil {
		return
	}
	s.Trace.TickInstant(track, name, tick, args)
}

// SpanBegin opens a wall-clock span on the attached tracer and returns its
// end function (a shared no-op when no tracer is attached).
func (s *Sink) SpanBegin(cat, name string) func(args map[string]any) {
	if s == nil || s.Trace == nil {
		return nopEnd
	}
	return s.Trace.Begin(cat, name)
}
