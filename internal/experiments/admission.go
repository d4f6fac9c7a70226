package experiments

import (
	"fmt"

	"reco/internal/online"
	"reco/internal/parallel"
	"reco/internal/workload"
)

// Admission compares deadline-aware admission policies under increasing
// offered load (the ROADMAP's Sincronia direction, SNIPPETS.md #1): the
// same seeded arrival stream — coflows with weights in {1,2,4,8} and
// deadlines a few bottleneck-times past arrival — is replayed at several
// arrival-rate multipliers through the EDF online controller fronted by
// admit-all (the no-admission baseline), the greedy weighted packing, and
// the LP admitter. Reported per (load, admitter) row: the fraction of
// coflows admitted, the fraction of total weight admitted, the deadline
// miss rate among admitted coflows, the mean weighted CCT of admitted
// coflows, and reconfiguration count. The shape that matters: as load
// grows past capacity, admit-all's miss rate explodes while the LP keeps
// admitted misses low at admitted weight no lower than greedy's.
//
// Off the presentation order: see experimentList.
func Admission(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:    "admission",
		Title: fmt.Sprintf("Deadline-aware admission under load (edf serving, delta=%d, c=%d)", cfg.Delta, cfg.C),
		Columns: []string{
			"admit%", "weight%", "miss%", "wCCT(adm)", "reconfigs",
		},
		Notes: []string{
			"load multiplies the arrival rate of one seeded stream; deadlines are rho*[2,5) past arrival, weights in {1,2,4,8}",
			"miss% counts admitted deadline-bearing coflows finishing late; admit-all is the no-admission baseline",
		},
	}

	coflows, err := workload.Generate(elephantGen(cfg, cfg.MulN, cfg.MulCoflows*3, cfg.Seed))
	if err != nil {
		return nil, fmt.Errorf("admission: %w", err)
	}

	loads := []float64{0.5, 1, 2, 4}
	admitters := []online.Admitter{online.AdmitAll{}, online.GreedyAdmit{}, online.LPAdmit{}}
	rows, err := grid(cfg.workers(), len(loads), len(admitters), func(li, ai int) (Row, error) {
		load, adm := loads[li], admitters[ai]
		arrivals := admissionArrivals(cfg, coflows, load)
		res, err := online.SimulateAdmit(arrivals, adm, online.EDF{}, cfg.Delta, cfg.C)
		if err != nil {
			return Row{}, fmt.Errorf("admission %s @%gx: %w", adm.Name(), load, err)
		}
		admitted, wcct := 0, 0.0
		var wcctWeight float64
		for k := range arrivals {
			if res.Rejected[k] {
				continue
			}
			admitted++
			w := arrivals[k].Weight
			wcct += w * float64(res.CCTs[k])
			wcctWeight += w
		}
		meanWCCT := 0.0
		if wcctWeight > 0 {
			meanWCCT = wcct / wcctWeight
		}
		label := fmt.Sprintf("%gx/%s", load, adm.Name())
		return Row{Label: label, Cells: []float64{
			100 * float64(admitted) / float64(len(arrivals)),
			100 * res.AdmittedWeight / res.TotalWeight,
			100 * res.MissRate(),
			meanWCCT,
			float64(res.Reconfigs),
		}}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, perLoad := range rows {
		t.Rows = append(t.Rows, perLoad...)
	}
	return t, nil
}

// admissionArrivals builds the seeded arrival stream at a given load
// multiplier. The base inter-arrival gap matches ExtOnline's "switch
// loaded without unbounded queueing" regime; load scales the rate, so 4x
// compresses gaps to a quarter.
func admissionArrivals(cfg Config, coflows []workload.Coflow, load float64) []online.Arrival {
	rng := parallel.Rand(cfg.Seed, saltAdmission)
	arrivals := make([]online.Arrival, len(coflows))
	var at int64
	for i, c := range coflows {
		rho := c.Demand.MaxRowColSum()
		weight := float64(int64(1) << rng.Intn(4))
		slack := 2 + 3*rng.Float64()
		arrivals[i] = online.Arrival{
			Demand:   c.Demand,
			At:       at,
			Weight:   weight,
			Deadline: at + int64(slack*float64(rho)),
		}
		gap := rng.Int63n(4 * cfg.C * cfg.Delta)
		at += int64(float64(gap) / load)
	}
	return arrivals
}
