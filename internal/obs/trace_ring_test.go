package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

func ringEventNames(t *testing.T, tr *Tracer) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var out struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	var names []string
	for _, ev := range out.TraceEvents {
		if ev.Ph != "M" { // skip naming metadata
			names = append(names, ev.Name)
		}
	}
	return names
}

func TestTracerRingKeepsNewestAndCountsDrops(t *testing.T) {
	tr := NewTracerCap(3)
	for i := 0; i < 7; i++ {
		tr.TickInstant("track", fmt.Sprintf("e%d", i), int64(i), nil)
	}
	if got := tr.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	if got := tr.Dropped(); got != 4 {
		t.Fatalf("Dropped = %d, want 4", got)
	}
	names := ringEventNames(t, tr)
	want := []string{"e4", "e5", "e6"}
	if len(names) != len(want) {
		t.Fatalf("events %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("events %v, want %v (oldest-first order)", names, want)
		}
	}
}

func TestTracerUnboundedNeverDrops(t *testing.T) {
	tr := NewTracerCap(0)
	for i := 0; i < 100; i++ {
		tr.TickInstant("track", "e", int64(i), nil)
	}
	if tr.Len() != 100 || tr.Dropped() != 0 {
		t.Fatalf("Len=%d Dropped=%d, want 100/0", tr.Len(), tr.Dropped())
	}
}

func TestTracerRingUnderCapacity(t *testing.T) {
	tr := NewTracerCap(10)
	tr.TickInstant("track", "a", 1, nil)
	tr.TickInstant("track", "b", 2, nil)
	if tr.Len() != 2 || tr.Dropped() != 0 {
		t.Fatalf("Len=%d Dropped=%d, want 2/0", tr.Len(), tr.Dropped())
	}
	names := ringEventNames(t, tr)
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("events %v, want [a b]", names)
	}
}

func TestNilTracerDropped(t *testing.T) {
	var tr *Tracer
	if tr.Dropped() != 0 {
		t.Fatal("nil tracer must report zero drops")
	}
}
