package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// lockedBuffer serializes writes so the flusher goroutine and the test can
// share one buffer.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestFlushEvery: the push exporter emits one parseable single-line JSON
// snapshot per flush, stop performs a final flush, and stop is idempotent.
func TestFlushEvery(t *testing.T) {
	defer Detach()
	r := NewRegistry()
	r.Counter("flush_test_total").Add(3)
	r.Gauge("flush_test_gauge").Set(1.5)
	Attach(&Sink{Metrics: r})

	var buf lockedBuffer
	stop := FlushEvery(&buf, time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for strings.Count(buf.String(), "\n") < 2 {
		if time.Now().After(deadline) {
			t.Fatal("no periodic snapshots within 2s")
		}
		time.Sleep(time.Millisecond)
	}
	r.Counter("flush_test_total").Add(4)
	stop()
	stop() // idempotent

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 3 {
		t.Fatalf("got %d snapshots, want at least 3", len(lines))
	}
	for i, line := range lines {
		var snap map[string]any
		if err := json.Unmarshal([]byte(line), &snap); err != nil {
			t.Fatalf("snapshot %d is not one JSON line: %v\n%s", i, err, line)
		}
		if _, ok := snap["flush_test_total"]; !ok {
			t.Fatalf("snapshot %d misses the counter: %s", i, line)
		}
	}
	// The final (post-stop) flush sees the last counter value.
	var last map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if got := last["flush_test_total"].(float64); got != 7 {
		t.Fatalf("final snapshot counter = %v, want 7", got)
	}
}

// TestFlushEveryStopOnly: a non-positive interval flushes exactly once, on
// stop — the degenerate "final snapshot only" mode.
func TestFlushEveryStopOnly(t *testing.T) {
	defer Detach()
	r := NewRegistry()
	r.Counter("flush_once_total").Inc()
	Attach(&Sink{Metrics: r})
	var buf lockedBuffer
	stop := FlushEvery(&buf, 0)
	stop()
	if got := strings.Count(buf.String(), "\n"); got != 1 {
		t.Fatalf("interval 0 wrote %d snapshots, want exactly 1", got)
	}
}

// TestFlushEveryGlobal: the package-level exporter follows the attached
// sink — snapshots are empty while detached and carry the registry's
// series while attached.
func TestFlushEveryGlobal(t *testing.T) {
	defer Detach()
	Detach()
	var buf lockedBuffer
	stop := FlushEvery(&buf, 0)
	r := NewRegistry()
	r.Counter("flush_global_total").Inc()
	Attach(&Sink{Metrics: r})
	stop()
	var snap map[string]any
	if err := json.Unmarshal([]byte(strings.TrimSpace(buf.String())), &snap); err != nil {
		t.Fatal(err)
	}
	if _, ok := snap["flush_global_total"]; !ok {
		t.Fatalf("attached registry missing from snapshot: %s", buf.String())
	}
}
