package main

import (
	"slices"
	"testing"
	"time"

	"reco/internal/experiments"
)

// tiny shrinks a service workload to a fabric and pool a test can afford.
func tiny(sp spec) spec {
	sp.n = 16
	if sp.name == "single_sparse" {
		sp.n = 32 // a 16-port matrix is rarely under 5% dense
	}
	sp.pool = min(sp.pool, 8*sp.coflows)
	sp.traced = 24
	return sp
}

func names(defs []declared) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	return out
}

func tableNames(defs []metric) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	return out
}

// TestContractNames holds the program's metric and workload tables to
// BENCHMARK.json: same names, same order, same units.
func TestContractNames(t *testing.T) {
	c, err := readContract("..")
	if err != nil {
		t.Fatal(err)
	}
	var declaredWorkloads []string
	for _, w := range c.Workloads {
		declaredWorkloads = append(declaredWorkloads, w.Name)
	}
	if got := workloadNames(); !slices.Equal(got, declaredWorkloads) {
		t.Errorf("workloads: program has %v, BENCHMARK.json %v", got, declaredWorkloads)
	}
	if got, want := tableNames(endToEnd), names(c.EndToEnd); !slices.Equal(got, want) {
		t.Errorf("end-to-end metrics: program has %v, BENCHMARK.json %v", got, want)
	}
	if got, want := tableNames(perLayer), names(c.PerLayer); !slices.Equal(got, want) {
		t.Errorf("per-layer metrics: program has %v, BENCHMARK.json %v", got, want)
	}
	for i, d := range append(slices.Clone(c.EndToEnd), c.PerLayer...) {
		m := append(slices.Clone(endToEnd), perLayer...)[i]
		if d.Name == m.name && d.Unit != m.unit {
			t.Errorf("%s: unit %q in the program, %q in BENCHMARK.json", d.Name, m.unit, d.Unit)
		}
	}
}

// checkRun asserts a run failed nothing and read every metric of its mode
// that must never be zero.
func checkRun(t *testing.T, res *result, nonZero []string) {
	t.Helper()
	if res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("%s: %d of %d operations failed: %v", res.Workload, res.Failed, res.Attempted, res.Errors)
	}
	for _, name := range nonZero {
		if res.Readings[name] == 0 {
			t.Errorf("%s: %s reads 0", res.Workload, name)
		}
	}
}

// sameReadings asserts two runs of one seed agree exactly on names.
func sameReadings(t *testing.T, a, b *result, names ...string) {
	t.Helper()
	for _, name := range names {
		if a.Readings[name] != b.Readings[name] {
			t.Errorf("%s: %s does not repeat: %v then %v", a.Workload, name, a.Readings[name], b.Readings[name])
		}
	}
}

// untraced sets the workload up once and drives a fixed number of
// requests, so the run is as long as the work and not as the clock.
func untraced(t *testing.T, sp spec) *result {
	t.Helper()
	t0 := time.Now()
	st, svc, next, err := setUp(sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.stop()
	res := &result{Workload: sp.name}
	res.add("setup_s", time.Since(t0).Seconds())
	res.addDrive(sp, svc.drive(st, next, 48, 0))
	return res
}

func TestServiceWorkloads(t *testing.T) {
	for _, full := range serviceSpecs {
		sp := tiny(full)
		t.Run(sp.name, func(t *testing.T) {
			a, b := untraced(t, sp), untraced(t, sp)
			for _, res := range []*result{a, b} {
				checkRun(t, res, tableNames(endToEnd))
				if res.Attempted != 48 {
					t.Errorf("drove %d requests, want 48", res.Attempted)
				}
			}
			sameReadings(t, a, b, "cct_over_lb", "reconfigs_per_coflow")

			var traced [2]*result
			for i := range traced {
				res, err := runServiceTraced(sp, 1, 20*time.Millisecond, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				checkRun(t, res, []string{"api.decode_us", "api.encode_us", "api.handler_us", "api.req_bytes",
					"api.resp_bytes", "plancache.fingerprint_us", "proc.cpu_util", "trace.coverage", "trace.overhead_ratio"})
				traced[i] = res
			}
			sameReadings(t, traced[0], traced[1], "api.req_bytes", "api.resp_bytes", "bvn.terms", "ocs.flows", "packet.flows")
			wantHits := 0.0
			if !sp.distinct {
				wantHits = 1
			}
			if got := traced[0].Readings["plancache.hit_ratio"]; got != wantHits {
				t.Errorf("plancache.hit_ratio = %v, want %v", got, wantHits)
			}
			solver := traced[0].Readings["algo.schedule_us"]
			if sp.distinct == (solver == 0) {
				t.Errorf("algo.schedule_us = %v on a workload with distinct=%v", solver, sp.distinct)
			}
		})
	}
}

// TestSuite runs exp_suite at a toy scale. results/ holds the tables at full
// scale only, so the reference is a first pass of the test's own: every later
// table must come out byte for byte the same.
func TestSuite(t *testing.T) {
	cfg := experiments.Config{Seed: 1, Workers: 2, SingleN: 12, SingleCoflows: 16, MulN: 10, MulCoflows: 4, MulBatches: 1}
	want := map[string]string{}
	for _, id := range suiteIDs {
		table, err := experiments.Registry()[id](cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = table.CSV()
	}
	var runs [2]*result
	for i := range runs {
		res := &result{Workload: suiteName}
		res.add("setup_s", 1)
		newSuite(cfg, want, 1).measure(res, 0)
		checkRun(t, res, tableNames(endToEnd))
		runs[i] = res
	}
	sameReadings(t, runs[0], runs[1], "cct_over_lb", "reconfigs_per_coflow")

	res := &result{Workload: suiteName}
	if err := newSuite(cfg, want, 1).trace(res, 1, 0, t.TempDir(), tiny(serviceSpecs[0]), tiny(serviceSpecs[3])); err != nil {
		t.Fatal(err)
	}
	checkRun(t, res, []string{"experiments.fig5b_s", "experiments.fig7_s", "experiments.fig8_s",
		"experiments.faults_s", "experiments.kcore_s", "sim.runfaults_us", "ordering.lpii_us", "trace.coverage"})
}

// TestCommittedTablesPresent keeps exp_suite's references in step with
// results/.
func TestCommittedTablesPresent(t *testing.T) {
	if _, err := committedTables(".."); err != nil {
		t.Fatal(err)
	}
}
