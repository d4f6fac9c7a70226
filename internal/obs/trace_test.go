package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

// chromeTrace mirrors the exported object enough to assert on it.
type chromeTrace struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		TS   int64          `json:"ts"`
		Dur  int64          `json:"dur"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func decodeTrace(t *testing.T, tr *Tracer) chromeTrace {
	t.Helper()
	var b bytes.Buffer
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	var out chromeTrace
	if err := json.Unmarshal(b.Bytes(), &out); err != nil {
		t.Fatalf("invalid chrome trace JSON: %v\n%s", err, b.String())
	}
	return out
}

func TestTracerWallSpans(t *testing.T) {
	tr := NewTracerCap(0)
	end := tr.Begin("stage", "stuff")
	end(map[string]any{"n": 4})
	out := decodeTrace(t, tr)
	var found bool
	for _, ev := range out.TraceEvents {
		if ev.Name == "stuff" && ev.Ph == "X" && ev.PID == pidWall {
			found = true
			if ev.Dur < 1 {
				t.Errorf("span dur = %d, want >= 1", ev.Dur)
			}
			if ev.Args["n"] != float64(4) {
				t.Errorf("span args = %v", ev.Args)
			}
		}
	}
	if !found {
		t.Fatalf("wall span missing from trace: %+v", out.TraceEvents)
	}
}

// TestTracerSlotReuse: concurrent spans get distinct rows; sequential
// spans reuse row 0.
func TestTracerSlotReuse(t *testing.T) {
	tr := NewTracerCap(0)
	end1 := tr.Begin("c", "a")
	end2 := tr.Begin("c", "b") // overlaps span a -> distinct tid
	end1(nil)
	end2(nil)
	end3 := tr.Begin("c", "c") // both released -> back to tid 0
	end3(nil)
	out := decodeTrace(t, tr)
	tids := map[string]int{}
	for _, ev := range out.TraceEvents {
		if ev.Ph == "X" {
			tids[ev.Name] = ev.TID
		}
	}
	if tids["a"] == tids["b"] {
		t.Errorf("overlapping spans share tid %d", tids["a"])
	}
	if tids["c"] != 0 {
		t.Errorf("sequential span tid = %d, want 0", tids["c"])
	}
}

func TestTracerTickEvents(t *testing.T) {
	tr := NewTracerCap(0)
	tr.TickSpan("switch", "reconfig", 0, 100, nil)
	tr.TickSpan("switch", "transmit", 100, 400, map[string]any{"est": 0})
	tr.TickInstant("faults", "port-down", 250, map[string]any{"port": 3})
	out := decodeTrace(t, tr)

	names := map[string]bool{}
	threadNames := map[int]string{}
	for _, ev := range out.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" && ev.PID == pidSim {
			threadNames[ev.TID], _ = ev.Args["name"].(string)
		}
		if ev.PID == pidSim && ev.Ph != "M" {
			names[ev.Name] = true
			if ev.Name == "transmit" && (ev.TS != 100 || ev.Dur != 300) {
				t.Errorf("transmit ts/dur = %d/%d, want 100/300", ev.TS, ev.Dur)
			}
		}
	}
	for _, want := range []string{"reconfig", "transmit", "port-down"} {
		if !names[want] {
			t.Errorf("trace missing sim event %q", want)
		}
	}
	// Both tracks are named via metadata.
	var haveSwitch, haveFaults bool
	for _, n := range threadNames {
		haveSwitch = haveSwitch || n == "switch"
		haveFaults = haveFaults || n == "faults"
	}
	if !haveSwitch || !haveFaults {
		t.Errorf("track metadata missing: %v", threadNames)
	}
}

func TestTracerNil(t *testing.T) {
	var tr *Tracer
	tr.Begin("c", "n")(nil)
	tr.TickSpan("t", "n", 0, 1, nil)
	tr.TickInstant("t", "n", 0, nil)
	if tr.Len() != 0 {
		t.Error("nil tracer has events")
	}
	var b bytes.Buffer
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	var out chromeTrace
	if err := json.Unmarshal(b.Bytes(), &out); err != nil {
		t.Fatalf("nil tracer output invalid: %v", err)
	}
}

// TestTracerConcurrency: spans and tick events from many goroutines while
// WriteChrome snapshots concurrently; -race must stay clean.
func TestTracerConcurrency(t *testing.T) {
	tr := NewTracerCap(0)
	var wg sync.WaitGroup
	const workers = 8
	wg.Add(workers + 1)
	for w := 0; w < workers; w++ {
		w := w
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				end := tr.Begin("trial", "t")
				tr.TickSpan("track", "ev", int64(i), int64(i+1), map[string]any{"w": w})
				end(nil)
			}
		}()
	}
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			_ = tr.WriteChrome(&bytes.Buffer{})
		}
	}()
	wg.Wait()
	if got := tr.Len(); got != workers*200*2 {
		t.Errorf("event count = %d, want %d", got, workers*200*2)
	}
}
