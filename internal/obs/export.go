package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4). Series are grouped by family so each
// # TYPE line precedes all of its samples; histograms expand into
// cumulative _bucket series plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	ids := r.ids()
	// Group ids by family, preserving the sorted order.
	fams := make(map[string][]string)
	var famOrder []string
	for _, id := range ids {
		f := family(id)
		if _, ok := fams[f]; !ok {
			famOrder = append(famOrder, f)
		}
		fams[f] = append(fams[f], id)
	}
	sort.Strings(famOrder)
	for _, f := range famOrder {
		if h, ok := r.help.Load(f); ok {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f, h); err != nil {
				return err
			}
		}
		v0, _ := r.metrics.Load(fams[f][0])
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f, promType(v0)); err != nil {
			return err
		}
		for _, id := range fams[f] {
			v, ok := r.metrics.Load(id)
			if !ok {
				continue
			}
			if err := writePromSeries(w, id, v); err != nil {
				return err
			}
		}
	}
	return nil
}

func promType(v any) string {
	switch v.(type) {
	case *Counter:
		return "counter"
	case *Gauge:
		return "gauge"
	case *Histogram:
		return "histogram"
	}
	return "untyped"
}

func writePromSeries(w io.Writer, id string, v any) error {
	switch m := v.(type) {
	case *Counter:
		_, err := fmt.Fprintf(w, "%s %d\n", id, m.Value())
		return err
	case *Gauge:
		_, err := fmt.Fprintf(w, "%s %s\n", id, formatFloat(m.Value()))
		return err
	case *Histogram:
		fam, lbl := family(id), labels(id)
		buckets, total := m.snapshot()
		var cum int64
		for i, c := range buckets {
			cum += c
			le := "+Inf"
			if i < len(m.bounds) {
				le = formatFloat(m.bounds[i])
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", fam, lblPrefix(lbl), le, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", fam, lblBlock(lbl), formatFloat(m.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", fam, lblBlock(lbl), total)
		return err
	}
	return nil
}

// lblPrefix renders existing labels for splicing before an le label.
func lblPrefix(lbl string) string {
	if lbl == "" {
		return ""
	}
	return lbl + ","
}

// lblBlock renders an optional label block.
func lblBlock(lbl string) string {
	if lbl == "" {
		return ""
	}
	return "{" + lbl + "}"
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// histogramJSON is the JSON shape of one histogram series.
type histogramJSON struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// snapshotJSON collects every registered metric into the expvar-style map
// WriteJSON and FlushEvery serialize: counters and gauges as numbers,
// histograms as {count, sum, p50, p95, p99} objects.
func (r *Registry) snapshotJSON() map[string]any {
	out := make(map[string]any)
	if r == nil {
		return out
	}
	for _, id := range r.ids() {
		v, ok := r.metrics.Load(id)
		if !ok {
			continue
		}
		switch m := v.(type) {
		case *Counter:
			out[id] = m.Value()
		case *Gauge:
			out[id] = m.Value()
		case *Histogram:
			out[id] = histogramJSON{
				Count: m.Count(), Sum: m.Sum(),
				P50: m.Quantile(0.50), P95: m.Quantile(0.95), P99: m.Quantile(0.99),
			}
		}
	}
	return out
}

// WriteJSON renders every registered metric as a single expvar-style JSON
// object keyed by series id: counters and gauges as numbers, histograms as
// {count, sum, p50, p95, p99} objects. Keys are emitted sorted (the
// encoding/json map behavior), so output is stable for tests and diffing.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.snapshotJSON())
}

// FlushEvery starts a background goroutine that writes one compact
// (single-line) JSON snapshot of the process-global sink's registry to w
// every interval — a push exporter for long runs that should be
// monitorable without an HTTP endpoint to scrape (`tail -f` of the
// snapshot stream). Each snapshot reads the registry attached at that
// moment, so one exporter can span attach/detach cycles; while detached it
// emits empty {} snapshots. The returned stop function writes one final
// snapshot, waits for the goroutine to exit, and is idempotent. Write
// errors are ignored: monitoring must never abort the run it observes.
// Intervals ≤ 0 flush only on stop.
func FlushEvery(w io.Writer, interval time.Duration) (stop func()) {
	flush := func() {
		var reg *Registry
		if s := Current(); s != nil {
			reg = s.Metrics
		}
		enc := json.NewEncoder(w) // no indent: one snapshot per line
		_ = enc.Encode(reg.snapshotJSON())
	}
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		if interval <= 0 {
			<-done
			return
		}
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				flush()
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			<-exited
			flush()
		})
	}
}

// PromHandler serves WritePrometheus over HTTP (GET only).
func (r *Registry) PromHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "use GET", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// JSONHandler serves WriteJSON over HTTP (GET only).
func (r *Registry) JSONHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "use GET", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = r.WriteJSON(w)
	})
}
