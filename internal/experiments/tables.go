package experiments

import (
	"fmt"

	"reco/internal/core"
	"reco/internal/workload"
)

// Table1 reproduces Table I: the share of coflows per demand-matrix density
// class.
func Table1(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	coflows, err := paperWorkload(cfg)
	if err != nil {
		return nil, fmt.Errorf("table1: %w", err)
	}
	s := workload.Summarize(coflows)
	t := &Table{
		ID:      "table1",
		Title:   "Coflow types by demand-matrix density (percent of coflows)",
		Columns: []string{"Sparse", "Normal", "Dense"},
		Notes:   []string{"paper: 86.31 / 5.13 / 8.56"},
	}
	t.AddRow("percent",
		s.ClassPercent(workload.Sparse),
		s.ClassPercent(workload.Normal),
		s.ClassPercent(workload.Dense))
	return t, nil
}

// Table2 reproduces Table II: coflow counts and byte shares per transmission
// mode.
func Table2(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	coflows, err := paperWorkload(cfg)
	if err != nil {
		return nil, fmt.Errorf("table2: %w", err)
	}
	s := workload.Summarize(coflows)
	t := &Table{
		ID:      "table2",
		Title:   "Coflow transmission modes (percent of coflows / percent of bytes)",
		Columns: []string{"S2S", "S2M", "M2S", "M2M"},
		Notes: []string{
			"paper numbers%: 23.38 / 9.89 / 40.11 / 26.62",
			"paper sizes%:   0.005 / 0.024 / 0.028 / 99.943",
		},
	}
	t.AddRow("numbers%",
		s.ModePercent(workload.S2S), s.ModePercent(workload.S2M),
		s.ModePercent(workload.M2S), s.ModePercent(workload.M2M))
	t.AddRow("sizes%",
		s.BytesPercent(workload.S2S), s.BytesPercent(workload.S2M),
		s.BytesPercent(workload.M2S), s.BytesPercent(workload.M2M))
	return t, nil
}

// Table3 reproduces Table III: the approximation ratios for coflow
// scheduling in OCS. The Reco-Mul column evaluates 4·f(c) = 4·(1+1/⌊√c⌋)²
// over the paper's range of c.
func Table3(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "table3",
		Title:   "Approximation ratios (A = all-stop model)",
		Columns: []string{"single(A)", "multi(A) 4·f(c)"},
		Notes: []string{
			"Sunflow: 2 (not-all-stop, single coflow only)",
			"f(c) = (1 + 1/floor(sqrt(c)))^2; rows evaluate the paper's c range",
		},
	}
	t.AddRow("Reco-Sin", 2, 0)
	for c := int64(2); c <= 7; c++ {
		t.AddRow(fmt.Sprintf("Reco-Mul c=%d", c), 2, core.ApproxRatioMul(4, c))
	}
	return t, nil
}
