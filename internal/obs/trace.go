package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Trace-event pids. Wall-clock spans (pipeline stages, trials) and
// simulated-time events (establishments, faults) live in different
// timebases, so the Chrome trace keeps them in separate "processes": one
// tick renders as one microsecond on the simulator track.
const (
	pidWall = 1
	pidSim  = 2
)

// Tracer accumulates Chrome trace events: wall-clock spans via Begin and
// simulated-tick spans/instants via TickSpan/TickInstant. It is safe for
// concurrent use; all methods are nil-safe no-ops, so instrumented code
// can call through an absent tracer for free.
//
// A tracer from NewTracer grows without bound — fine for short recosim
// runs, wrong for long rate-based or load-test sessions. NewTracerCap
// bounds it with a ring buffer: once full, each new event overwrites the
// oldest and Dropped counts the overwritten ones, so the trace always
// holds the most recent window and the drop counter says how much history
// it lost.
type Tracer struct {
	mu      sync.Mutex
	start   time.Time
	events  []traceEvent
	cap     int            // ring capacity; 0 = unbounded
	head    int            // index of the oldest event when the ring is full
	dropped int64          // events overwritten by the ring
	slots   []bool         // wall-span rows in use, index = tid
	tracks  map[string]int // tick track name -> tid
	order   []string       // tick tracks in first-use order
}

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// NewTracerCap returns a tracer bounded to the most recent n events (a
// ring buffer; see the Tracer doc). n <= 0 means unbounded.
func NewTracerCap(n int) *Tracer {
	if n < 0 {
		n = 0
	}
	return &Tracer{start: time.Now(), cap: n, tracks: make(map[string]int)}
}

// Dropped returns how many events the ring buffer has overwritten. It is
// always 0 for an unbounded tracer.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// recordLocked appends an event, overwriting the oldest when the ring is
// full; t.mu must be held.
func (t *Tracer) recordLocked(ev traceEvent) {
	if t.cap <= 0 || len(t.events) < t.cap {
		t.events = append(t.events, ev)
		return
	}
	t.events[t.head] = ev
	t.head = (t.head + 1) % t.cap
	t.dropped++
}

// snapshotLocked copies the events in recording order; t.mu must be held.
func (t *Tracer) snapshotLocked() []traceEvent {
	out := make([]traceEvent, 0, len(t.events))
	out = append(out, t.events[t.head:]...)
	out = append(out, t.events[:t.head]...)
	return out
}

// Begin opens a wall-clock span and returns the function that closes it.
// Concurrent spans are placed on distinct rows (the lowest free tid), so
// overlapping work from parallel workers renders side by side. The end
// function must be called exactly once; args recorded there end up on the
// event.
func (t *Tracer) Begin(cat, name string) func(args map[string]any) {
	if t == nil {
		return nopEnd
	}
	start := time.Since(t.start)
	t.mu.Lock()
	tid := 0
	for tid < len(t.slots) && t.slots[tid] {
		tid++
	}
	if tid == len(t.slots) {
		t.slots = append(t.slots, true)
	} else {
		t.slots[tid] = true
	}
	t.mu.Unlock()
	return func(args map[string]any) {
		dur := time.Since(t.start) - start
		t.mu.Lock()
		t.recordLocked(traceEvent{
			Name: name, Cat: cat, Ph: "X", PID: pidWall, TID: tid,
			TS: start.Microseconds(), Dur: max64(dur.Microseconds(), 1), Args: args,
		})
		t.slots[tid] = false
		t.mu.Unlock()
	}
}

func nopEnd(map[string]any) {}

// TickSpan records a complete span on the simulated-time axis: [start,
// end] in ticks on the named track (one track per row). Zero-length spans
// are widened to one tick so they stay visible.
func (t *Tracer) TickSpan(track, name string, start, end int64, args map[string]any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.recordLocked(traceEvent{
		Name: name, Ph: "X", PID: pidSim, TID: t.trackLocked(track),
		TS: start, Dur: max64(end-start, 1), Args: args,
	})
	t.mu.Unlock()
}

// TickInstant records an instantaneous event at tick on the named track.
func (t *Tracer) TickInstant(track, name string, tick int64, args map[string]any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.recordLocked(traceEvent{
		Name: name, Ph: "i", PID: pidSim, TID: t.trackLocked(track),
		TS: tick, S: "t", Args: args,
	})
	t.mu.Unlock()
}

// trackLocked resolves a tick track name to its tid; t.mu must be held.
func (t *Tracer) trackLocked(track string) int {
	if tid, ok := t.tracks[track]; ok {
		return tid
	}
	tid := len(t.tracks)
	t.tracks[track] = tid
	t.order = append(t.order, track)
	return tid
}

// Len returns the number of events recorded so far.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// WriteChrome renders the accumulated events as Chrome trace-event JSON
// (the object form, with process/thread naming metadata), loadable in
// chrome://tracing and Perfetto. Safe to call while events are still being
// recorded; it snapshots under the lock.
func (t *Tracer) WriteChrome(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[]}`+"\n")
		return err
	}
	t.mu.Lock()
	events := t.snapshotLocked()
	tracks := append([]string(nil), t.order...)
	t.mu.Unlock()

	meta := []traceEvent{
		{Name: "process_name", Ph: "M", PID: pidWall, Args: map[string]any{"name": "scheduler (wall clock)"}},
		{Name: "process_name", Ph: "M", PID: pidSim, Args: map[string]any{"name": "simulator (1 tick = 1us)"}},
	}
	for tid, name := range tracks {
		meta = append(meta, traceEvent{
			Name: "thread_name", Ph: "M", PID: pidSim, TID: tid,
			Args: map[string]any{"name": name},
		})
	}
	out := struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{append(meta, events...), "ms"}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
