package main

import (
	"math"
	"slices"
	"time"
)

// metric is one named number of the benchmark. The two tables below are the
// program's side of the contract in BENCHMARK.json; bench_test.go asserts the
// two agree name for name.
type metric struct {
	name, unit string
	// exact marks a metric that is a function of the seed alone: two runs
	// of one commit must agree on it to the last digit.
	exact bool
}

// endToEnd lists what a caller of recod or a reader of recobench tables
// sees. Every workload reports every one of them (README.md says what each
// means on exp_suite, where the operation is a table and not a request).
var endToEnd = []metric{
	{name: "setup_s", unit: "s"},
	{name: "throughput_rps", unit: "1/s"},
	{name: "latency_p50_ms", unit: "ms"},
	{name: "latency_p99_ms", unit: "ms"},
	{name: "allocs_per_req", unit: "count"},
	{name: "bytes_per_req", unit: "B"},
	{name: "cct_over_lb", unit: "ratio", exact: true},
	{name: "reconfigs_per_coflow", unit: "count", exact: true},
	{name: "wall_s", unit: "s"},
}

// perLayer lists the traced run's numbers; module names are the layer
// names. A layer a workload never enters reads 0 there.
var perLayer = []metric{
	{name: "api.decode_us", unit: "us"},
	{name: "api.req_bytes", unit: "B"},
	{name: "api.encode_us", unit: "us"},
	{name: "api.resp_bytes", unit: "B"},
	{name: "api.handler_us", unit: "us"},
	{name: "api.transport_us", unit: "us"},
	{name: "matrix.fromrows_us", unit: "us"},
	{name: "plancache.fingerprint_us", unit: "us"},
	{name: "plancache.get_hit_us", unit: "us"},
	{name: "plancache.put_us", unit: "us"},
	{name: "plancache.hit_ratio", unit: "ratio"},
	{name: "plancache.evictions", unit: "count"},
	{name: "algo.schedule_us", unit: "us"},
	{name: "core.regularize_us", unit: "us"},
	{name: "matrix.stuff_us", unit: "us"},
	{name: "core.recosin_us", unit: "us"},
	{name: "bvn.decompose_us", unit: "us"},
	{name: "bvn.terms", unit: "count"},
	{name: "bvn.us_per_term", unit: "us"},
	{name: "matching.engine_init_us", unit: "us"},
	{name: "matching.extract_us", unit: "us"},
	{name: "ocs.execallstop_us", unit: "us"},
	{name: "ocs.flows", unit: "count"},
	{name: "ocs.lowerbound_us", unit: "us"},
	{name: "ordering.primaldual_us", unit: "us"},
	{name: "packet.listschedule_us", unit: "us"},
	{name: "packet.flows", unit: "count"},
	{name: "core.recomul_us", unit: "us"},
	{name: "sim.runfaults_us", unit: "us"},
	{name: "ordering.lpii_us", unit: "us"},
	{name: "experiments.fig5b_s", unit: "s"},
	{name: "experiments.fig7_s", unit: "s"},
	{name: "experiments.fig8_s", unit: "s"},
	{name: "experiments.faults_s", unit: "s"},
	{name: "experiments.kcore_s", unit: "s"},
	{name: "proc.cpu_util", unit: "ratio"},
	{name: "proc.gc_pause_ms", unit: "ms"},
	{name: "proc.gc_cycles", unit: "count"},
	{name: "trace.coverage", unit: "ratio"},
	{name: "trace.overhead_ratio", unit: "ratio"},
}

// value is a reading as the driver wants it: the number with all its
// digits, and its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// readings collects a run's numbers by metric name and renders them
// against one of the tables above, so a name the run forgot reads 0 and a
// name the table lacks is dropped.
type readings map[string]float64

func (r readings) render(defs []metric) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.name] = value{Value: r[d.name], Unit: d.unit}
	}
	return out
}

// rank is the index of the nearest-rank q-quantile among n sorted samples.
func rank(n int, q float64) int {
	return min(max(int(math.Ceil(q*float64(n)))-1, 0), n-1)
}

// quantile is the nearest-rank q-quantile of sorted, which is not empty.
func quantile(sorted []time.Duration, q float64) time.Duration {
	return sorted[rank(len(sorted), q)]
}

// median of xs; xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	mid := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[mid]
	}
	return (xs[mid-1] + xs[mid]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
