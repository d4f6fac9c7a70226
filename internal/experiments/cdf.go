package experiments

import (
	"fmt"

	"reco/internal/stats"
)

// cdfPercentiles are the points reported for the CDF-shaped figures.
var cdfPercentiles = []float64{10, 25, 50, 75, 90, 95, 100}

// Fig4aCDF reproduces the CDF presentation of Fig. 4(a): per density class,
// the distribution of per-coflow reconfiguration counts for Reco-Sin and
// Solstice at the default delta.
func Fig4aCDF(cfg Config) (*Table, error) {
	return cdfSingle(cfg, "fig4a-cdf", "CDF of per-coflow reconfigurations (delta=%d)", pickReconfs)
}

// Fig4bCDF reproduces the CDF presentation of Fig. 4(b): per density class,
// the distribution of per-coflow CCTs for Reco-Sin and Solstice.
func Fig4bCDF(cfg Config) (*Table, error) {
	return cdfSingle(cfg, "fig4b-cdf", "CDF of per-coflow CCT (delta=%d)", pickCCTs)
}

func cdfSingle(cfg Config, id, titleFmt string, pick func(singleMetrics) []float64) (*Table, error) {
	cfg = cfg.withDefaults()
	return bothPerClass(cfg, &Table{
		ID:      id,
		Title:   fmt.Sprintf(titleFmt, cfg.Delta),
		Columns: []string{"Reco-Sin", "Solstice"},
	}, pick, presentOnly(func(t *Table, label string, cols [][]float64) {
		// Percentiles fails only on an empty sample or a point outside
		// [0,100]; neither can happen here.
		recoPs, _ := stats.Percentiles(cols[0], cdfPercentiles...)
		solPs, _ := stats.Percentiles(cols[1], cdfPercentiles...)
		for i, p := range cdfPercentiles {
			t.AddRow(fmt.Sprintf("%s p%.0f", label, p), recoPs[i], solPs[i])
		}
	}))
}
