package main

import (
	"cmp"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// span is one timed call into a layer's public function. The spans of one
// request share req. parent is the span that logically causes this one: the
// program has no spans of its own yet, so a parent (say core.RecoSinCtx) and
// its children (Regularize, StuffPreferNonZero, DecomposeCtx) are timed as
// separate calls one after another, and the tree is the pipeline's call
// structure, not containment in time.
type span struct {
	name       string
	req        int
	parent     int // index into tracer.spans, -1 for a root
	start, end time.Duration
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the probes run untraced.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name string, req, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, req: req, parent: parent, start: time.Since(t.epoch)})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].end = time.Since(t.epoch)
	}
}

// rename retitles an open or closed span, for a call whose outcome decides
// what it was (a cache lookup that turned out a hit).
func (t *tracer) rename(id int, name string) {
	if t != nil {
		t.spans[id].name = name
	}
}

// dur is the span's length, zero for one a failed request left open.
func (s span) dur() time.Duration { return max(s.end-s.start, 0) }

// layerTime is a span name's total over the trace.
type layerTime struct {
	total time.Duration // sum of span durations
	self  time.Duration // total minus what the spans' children cover
	leaf  time.Duration // total of the spans that have no children
	calls int
}

// byLayer sums the trace per span name. Self time is a span's duration
// minus its children's, floored at zero because children are separate calls
// and can add up to a little more than their parent.
func (t *tracer) byLayer() map[string]*layerTime {
	children := make([]time.Duration, len(t.spans))
	hasChild := make([]bool, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] += s.dur()
			hasChild[s.parent] = true
		}
	}
	out := map[string]*layerTime{}
	for i, s := range t.spans {
		l := out[s.name]
		if l == nil {
			l = &layerTime{}
			out[s.name] = l
		}
		l.calls++
		l.total += s.dur()
		l.self += max(s.dur()-children[i], 0)
		if !hasChild[i] {
			l.leaf += s.dur()
		}
	}
	return out
}

// layerRow is one line of the table a traced run prints: where the replay's
// time went, by span name, largest self time first.
type layerRow struct {
	Name    string  `json:"span"`
	Calls   int     `json:"calls"`
	TotalUS float64 `json:"total_us"`
	SelfUS  float64 `json:"self_us"`
}

func table(layers map[string]*layerTime) []layerRow {
	var rows []layerRow
	for name, l := range layers {
		rows = append(rows, layerRow{Name: name, Calls: l.calls, TotalUS: us(l.total), SelfUS: us(l.self)})
	}
	slices.SortFunc(rows, func(a, b layerRow) int {
		return cmp.Or(cmp.Compare(b.SelfUS, a.SelfUS), cmp.Compare(a.Name, b.Name))
	})
	return rows
}

// traceEvent is one Chrome trace-event "complete" event; chrome://tracing
// and Perfetto both load a file of them.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// write stores the trace as dir/trace-<workload>.json.
func (t *tracer) write(dir, workload string) (string, error) {
	events := make([]traceEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = traceEvent{
			Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.dur()), Pid: 1, Tid: 1,
			Args: map[string]int{"id": i, "parent": s.parent, "req": s.req},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}
