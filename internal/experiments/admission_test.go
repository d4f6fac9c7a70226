package experiments

import (
	"testing"

	"reco/internal/obs"
	"reco/internal/online/admission"
)

// smallAdmissionConfig keeps the admission experiment fast in tests.
func smallAdmissionConfig() Config {
	return Config{Seed: 1, MulN: 16, MulCoflows: 4, MulBatches: 1}
}

func TestAdmissionShape(t *testing.T) {
	tbl, err := Admission(smallAdmissionConfig())
	if err != nil {
		t.Fatalf("Admission: %v", err)
	}
	if len(tbl.Rows) != 12 { // 4 loads × 3 admitters
		t.Fatalf("got %d rows, want 12", len(tbl.Rows))
	}
	byLabel := map[string]Row{}
	for _, r := range tbl.Rows {
		if len(r.Cells) != len(tbl.Columns) {
			t.Fatalf("row %q has %d cells, want %d", r.Label, len(r.Cells), len(tbl.Columns))
		}
		byLabel[r.Label] = r
	}

	const (
		colAdmit = iota
		colWeight
		colMiss
	)
	// Admit-all admits everything at every load.
	for _, load := range []string{"0.5x", "1x", "2x", "4x"} {
		r, ok := byLabel[load+"/admit-all"]
		if !ok {
			t.Fatalf("missing row %s/admit-all", load)
		}
		if r.Cells[colAdmit] != 100 || r.Cells[colWeight] != 100 {
			t.Fatalf("%s/admit-all admitted %v%% weight %v%%, want 100/100", load, r.Cells[colAdmit], r.Cells[colWeight])
		}
	}
	// At the top load the LP must beat the no-admission baseline on
	// admitted miss rate and be no lighter than greedy — the acceptance
	// shape of the experiment.
	base := byLabel["4x/admit-all"]
	lp := byLabel["4x/lp"]
	greedy := byLabel["4x/greedy"]
	if lp.Cells[colMiss] >= base.Cells[colMiss] {
		t.Fatalf("lp miss %v%% not below admit-all %v%%", lp.Cells[colMiss], base.Cells[colMiss])
	}
	if lp.Cells[colWeight] < greedy.Cells[colWeight] {
		t.Fatalf("lp admitted weight %v%% below greedy %v%%", lp.Cells[colWeight], greedy.Cells[colWeight])
	}
}

func TestAdmissionDeterministicAcrossWorkers(t *testing.T) {
	cfg := smallAdmissionConfig()
	cfg.Workers = 1
	a, err := Admission(cfg)
	if err != nil {
		t.Fatalf("workers=1: %v", err)
	}
	cfg.Workers = 4
	b, err := Admission(cfg)
	if err != nil {
		t.Fatalf("workers=4: %v", err)
	}
	if a.CSV() != b.CSV() {
		t.Fatalf("admission table varies with worker count:\n%s\nvs\n%s", a.CSV(), b.CSV())
	}
}

func TestAdmissionRegisteredButNotInOrder(t *testing.T) {
	if _, ok := Registry()["admission"]; !ok {
		t.Fatal("admission missing from Registry()")
	}
	for _, id := range Order() {
		if id == "admission" {
			t.Fatal("admission must not join Order(): results/all.txt would change")
		}
	}
}

// TestAdmissionLPNeverFallsBack: results/admission.csv is checked byte for
// byte, yet an LP admitter decision whose solve overruns admission.LPBudget of
// wall-clock time falls back to the greedy packing, and the table would then
// depend on the machine's speed. At the committed config every LP finishes
// in time. Skipped under -race, whose slowdown is the detector's.
func TestAdmissionLPNeverFallsBack(t *testing.T) {
	if raceBuild {
		t.Skip("solve times under -race measure the detector")
	}
	reg := obs.NewRegistry()
	obs.Attach(&obs.Sink{Metrics: reg})
	defer obs.Detach()
	if _, err := Admission(Config{Seed: 1}); err != nil {
		t.Fatalf("Admission: %v", err)
	}
	if n := reg.Counter(obs.L("admission_decisions_total", "source", "lp")).Value(); n == 0 {
		t.Fatal("no decision came from the LP")
	}
	if n := reg.Counter("admission_lp_fallback_total").Value(); n != 0 {
		t.Fatalf("%d LP admission decisions fell back to greedy (budget %v)", n, admission.LPBudget)
	}
}
