package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"reco/internal/matrix"
	"reco/internal/parallel"
	"reco/internal/workload"
)

// tinyConfig keeps experiment tests fast; shape assertions use it rather
// than the full default scale.
var tinyConfig = Config{
	Seed:          3,
	SingleN:       24,
	SingleCoflows: 30,
	MulN:          20,
	MulCoflows:    5,
	MulBatches:    2,
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"a", "b"},
		Notes:   []string{"hello"},
	}
	tbl.AddRow("row1", 1, 2.5)
	s := tbl.String()
	for _, want := range []string{"== x: demo ==", "row1", "2.500", "note: hello"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
	csv := tbl.CSV()
	if !strings.Contains(csv, "row,a,b") || !strings.Contains(csv, "row1,1,2.5") {
		t.Errorf("CSV() wrong:\n%s", csv)
	}
}

func TestFormatCell(t *testing.T) {
	if formatCell(3) != "3" {
		t.Errorf("integer cell rendered as %q", formatCell(3))
	}
	if formatCell(3.14159) != "3.142" {
		t.Errorf("float cell rendered as %q", formatCell(3.14159))
	}
}

func TestRegistryCoversOrder(t *testing.T) {
	reg := Registry()
	for _, id := range Order() {
		if _, ok := reg[id]; !ok {
			t.Errorf("Order lists %q but Registry lacks it", id)
		}
	}
	// ext-full, admission, kcore, frontier and hybrid are registered but
	// deliberately not in Order (the opt-in full-workload run, and the
	// opt-in admission, K-core, sparse-frontier and hybrid-fluid sweeps
	// that would otherwise change results/all.txt).
	if len(reg) != len(Order())+5 {
		t.Errorf("Registry has %d entries, Order %d (+5 expected)", len(reg), len(Order()))
	}
}

// TestDesignIndexListsEveryExperiment keeps DESIGN.md §4 — the index
// recobench's doc comment and Registry's comment send readers to — in step
// with experimentList: every id appears there backticked.
func TestDesignIndexListsEveryExperiment(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(doc), "\n## 4. Per-experiment index\n")
	if !ok {
		t.Fatal("DESIGN.md has no \"## 4. Per-experiment index\" section")
	}
	index, _, _ := strings.Cut(rest, "\n## ")
	for _, e := range experimentList {
		if !strings.Contains(index, "`"+e.id+"`") {
			t.Errorf("DESIGN.md §4 has no entry for `%s`", e.id)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Delta != 100 || cfg.C != 4 || cfg.SingleN == 0 || cfg.MulN == 0 || cfg.MulBatches == 0 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	// Explicit values survive.
	cfg = Config{Delta: 7, C: 9}.withDefaults()
	if cfg.Delta != 7 || cfg.C != 9 {
		t.Errorf("explicit values overridden: %+v", cfg)
	}
}

func TestTable1Shape(t *testing.T) {
	tbl, err := Table1(tinyConfig)
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	if len(tbl.Rows) != 1 || len(tbl.Rows[0].Cells) != 3 {
		t.Fatalf("unexpected shape: %+v", tbl.Rows)
	}
	var sum float64
	for _, v := range tbl.Rows[0].Cells {
		sum += v
	}
	if sum < 99.9 || sum > 100.1 {
		t.Errorf("class percentages sum to %v, want 100", sum)
	}
	// Sparse dominates, as in the paper.
	if tbl.Rows[0].Cells[0] < 50 {
		t.Errorf("sparse share %v implausibly low", tbl.Rows[0].Cells[0])
	}
}

func TestTable2Shape(t *testing.T) {
	tbl, err := Table2(tinyConfig)
	if err != nil {
		t.Fatalf("Table2: %v", err)
	}
	if len(tbl.Rows) != 2 || len(tbl.Rows[0].Cells) != 4 {
		t.Fatalf("unexpected shape: %+v", tbl.Rows)
	}
	// M2M carries the overwhelming byte share.
	if m2mBytes := tbl.Rows[1].Cells[3]; m2mBytes < 90 {
		t.Errorf("M2M byte share %v, want > 90", m2mBytes)
	}
}

func TestTable3Shape(t *testing.T) {
	tbl, err := Table3(tinyConfig)
	if err != nil {
		t.Fatalf("Table3: %v", err)
	}
	// Reco-Sin row plus one row per c in 2..7.
	if len(tbl.Rows) != 7 {
		t.Fatalf("got %d rows, want 7", len(tbl.Rows))
	}
	// 4f(c) is non-increasing in c and bottoms out at 9 for c in 4..7.
	prev := tbl.Rows[1].Cells[1]
	for _, r := range tbl.Rows[2:] {
		if r.Cells[1] > prev {
			t.Errorf("4f(c) increased: %v after %v", r.Cells[1], prev)
		}
		prev = r.Cells[1]
	}
	if prev != 9 {
		t.Errorf("4f(7) = %v, want 9", prev)
	}
}

func TestFig4Shapes(t *testing.T) {
	a, err := Fig4a(tinyConfig)
	if err != nil {
		t.Fatalf("Fig4a: %v", err)
	}
	for _, r := range a.Rows {
		// Columns: Reco-Sin, Solstice, ratio. Reco-Sin must not reconfigure
		// more than Solstice on any class.
		if r.Cells[2] < 1 {
			t.Errorf("fig4a %s: Solstice/Reco ratio %v < 1", r.Label, r.Cells[2])
		}
	}
	b, err := Fig4b(tinyConfig)
	if err != nil {
		t.Fatalf("Fig4b: %v", err)
	}
	for _, r := range b.Rows {
		if r.Cells[2] < 1 {
			t.Errorf("fig4b %s: Solstice/Reco CCT ratio %v < 1", r.Label, r.Cells[2])
		}
	}
}

func TestFig5Shapes(t *testing.T) {
	a, err := Fig5a(tinyConfig)
	if err != nil {
		t.Fatalf("Fig5a: %v", err)
	}
	if len(a.Rows) != len(deltaSweep)*len(classOrder) {
		t.Fatalf("fig5a rows = %d, want %d", len(a.Rows), len(deltaSweep)*len(classOrder))
	}
	// Solstice's reconfiguration count is delta-independent: within a class
	// the Solstice column must be constant across the sweep.
	for ci := range classOrder {
		base := a.Rows[ci].Cells[1]
		for d := 1; d < len(deltaSweep); d++ {
			if got := a.Rows[d*len(classOrder)+ci].Cells[1]; got != base {
				t.Errorf("fig5a: Solstice count varies with delta: %v vs %v", got, base)
			}
		}
	}
	b, err := Fig5b(tinyConfig)
	if err != nil {
		t.Fatalf("Fig5b: %v", err)
	}
	for _, r := range b.Rows {
		if r.Cells[0] < 1-1e-9 {
			t.Errorf("fig5b %s: Reco-Sin below the lower bound (%v)", r.Label, r.Cells[0])
		}
		if r.Cells[0] > 2+1e-9 {
			t.Errorf("fig5b %s: Reco-Sin above 2x lower bound (%v)", r.Label, r.Cells[0])
		}
		if r.Cells[1] < r.Cells[0]-0.5 {
			t.Errorf("fig5b %s: Solstice (%v) implausibly below Reco-Sin (%v)", r.Label, r.Cells[1], r.Cells[0])
		}
	}
}

func TestThm2Bound(t *testing.T) {
	tbl, err := Thm2(tinyConfig)
	if err != nil {
		t.Fatalf("Thm2: %v", err)
	}
	for _, r := range tbl.Rows {
		if r.Cells[0] > 2 {
			t.Errorf("Theorem 2 violated for %s: %v > 2", r.Label, r.Cells[0])
		}
	}
}

func TestThm1Growth(t *testing.T) {
	tbl, err := Thm1(tinyConfig)
	if err != nil {
		t.Fatalf("Thm1: %v", err)
	}
	if len(tbl.Rows) < 3 {
		t.Fatalf("too few rows: %d", len(tbl.Rows))
	}
	first := tbl.Rows[0].Cells[4]
	last := tbl.Rows[len(tbl.Rows)-1].Cells[4]
	if last <= first {
		t.Errorf("Theorem 1 ratio did not grow with N: %v -> %v", first, last)
	}
}

func TestMultiExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-coflow experiments are slow")
	}
	for _, tc := range []struct {
		name   string
		runner Runner
	}{
		{"fig6", Fig6},
		{"fig7", Fig7},
		{"fig8", Fig8},
		{"ablation-align", AblationAlignment},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tbl, err := tc.runner(tinyConfig)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s: no rows", tc.name)
			}
			for _, r := range tbl.Rows {
				for ci, v := range r.Cells {
					if v < 0 {
						t.Errorf("%s %s cell %d negative: %v", tc.name, r.Label, ci, v)
					}
				}
			}
		})
	}
}

func TestSingleAblationsRun(t *testing.T) {
	for _, tc := range []struct {
		name   string
		runner Runner
	}{
		{"ablation-reg", AblationRegularization},
		{"ablation-bvn", AblationBvNStrategy},
		{"notallstop", NotAllStop},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tbl, err := tc.runner(tinyConfig)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if len(tbl.Rows) != len(classOrder) {
				t.Fatalf("%s: %d rows, want %d", tc.name, len(tbl.Rows), len(classOrder))
			}
		})
	}
}

func TestAblationRegularizationReducesReconfigs(t *testing.T) {
	tbl, err := AblationRegularization(tinyConfig)
	if err != nil {
		t.Fatalf("AblationRegularization: %v", err)
	}
	// Regularized reconfiguration counts must not exceed unregularized ones
	// on the denser classes, where alignment has material effect.
	for _, r := range tbl.Rows {
		if r.Label == "sparse" {
			continue
		}
		if r.Cells[0] > r.Cells[1] {
			t.Errorf("%s: regularized reconfigs %v > unregularized %v", r.Label, r.Cells[0], r.Cells[1])
		}
	}
}

func TestNotAllStopNeverSlower(t *testing.T) {
	tbl, err := NotAllStop(tinyConfig)
	if err != nil {
		t.Fatalf("NotAllStop: %v", err)
	}
	for _, r := range tbl.Rows {
		if r.Cells[1] > r.Cells[0] {
			t.Errorf("%s: not-all-stop CCT %v exceeds all-stop %v", r.Label, r.Cells[1], r.Cells[0])
		}
	}
}

func TestMulBatchClassPurity(t *testing.T) {
	cfg := tinyConfig.withDefaults()
	ds, err := mulBatch(cfg, 5, 0)
	if err != nil {
		t.Fatalf("mixed mulBatch: %v", err)
	}
	if len(ds) != cfg.MulCoflows {
		t.Fatalf("got %d coflows, want %d", len(ds), cfg.MulCoflows)
	}
	classes := classesOf(ds)
	if len(classes) != len(ds) {
		t.Fatal("classesOf length mismatch")
	}
}

// oversampledBatch is mulBatch as it was before it stopped generating at a
// full batch: draw the whole oversampled workload of every attempt, then
// filter. It is the reference TestMulBatchMatchesOversample holds mulBatch
// to.
func oversampledBatch(cfg Config, seed int64, cl workload.Class) ([]*matrix.Matrix, error) {
	need := cfg.MulCoflows
	var out []*matrix.Matrix
	for attempt := 0; attempt < 64 && len(out) < need; attempt++ {
		coflows, err := workload.GenerateWith(parallel.Rand(seed, int64(attempt)),
			elephantGen(cfg, cfg.MulN, max(need*4, 64), 0))
		if err != nil {
			return nil, err
		}
		for _, c := range coflows {
			if cl != mixed && workload.Classify(c.Demand) != cl {
				continue
			}
			out = append(out, c.Demand)
			if len(out) == need {
				break
			}
		}
	}
	if len(out) < need {
		return nil, fmt.Errorf("could only draw %d of %d %s coflows", len(out), need, className(cl))
	}
	return out, nil
}

// TestMulBatchMatchesOversample: stopping the generator once the batch is
// full keeps every matrix of the batch, for every class on seeds 1–8 at
// the default configuration and on one 525-coflow n = 150 mixed batch.
func TestMulBatchMatchesOversample(t *testing.T) {
	check := func(cfg Config, seed int64, cl workload.Class) {
		t.Helper()
		want, wantErr := oversampledBatch(cfg, seed, cl)
		got, err := mulBatch(cfg, seed, cl)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("seed %d %s: err %v, reference err %v", seed, className(cl), err, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d %s: %d coflows, reference %d", seed, className(cl), len(got), len(want))
		}
		for k := range want {
			if !got[k].Equal(want[k]) {
				t.Fatalf("seed %d %s: coflow %d differs from the reference", seed, className(cl), k)
			}
		}
	}
	cfg := Defaults()
	for seed := int64(1); seed <= 8; seed++ {
		for _, cl := range []workload.Class{mixed, workload.Sparse, workload.Normal, workload.Dense} {
			check(cfg, seed, cl)
		}
	}
	if testing.Short() {
		return
	}
	cfg.MulN, cfg.MulCoflows = 150, 525
	check(cfg, 1, mixed)
}
