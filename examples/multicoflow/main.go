// Multicoflow: schedule a mixed datacenter workload with Reco-Mul and
// compare the per-coflow completion times against the two multi-coflow
// baselines the paper evaluates (LP-II-GB and SEBF+Solstice) — the scenario
// of the paper's Figs. 6–8.
//
//	go run ./examples/multicoflow
package main

import (
	"context"
	"fmt"
	"log"

	"reco"
	"reco/internal/algo"
	_ "reco/internal/algo/builtin" // the lp-ii-gb and sebf-solstice rows
	"reco/internal/matrix"
	"reco/internal/stats"
	"reco/internal/workload"
)

func main() {
	const (
		ports = 40
		delta = 100
		c     = 4
	)
	coflows, err := reco.GenerateWorkload(ports, 24, 42)
	if err != nil {
		log.Fatal(err)
	}
	ds := make([]*matrix.Matrix, len(coflows))
	for i, cf := range coflows {
		ds[i] = cf.Demand
	}

	recoRes, err := reco.ScheduleMultiple(ds, nil, delta, c)
	if err != nil {
		log.Fatal(err)
	}
	baseline := func(name string) *algo.Result {
		res, err := algo.MustGet(name).Schedule(context.Background(), algo.Request{Demands: ds, Delta: delta, C: c})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	lpRes, sebfRes := baseline(algo.NameLPIIGB), baseline(algo.NameSEBFSolstice)

	fmt.Printf("%d coflows on a %d-port OCS (delta=%d, c=%d)\n\n", len(ds), ports, delta, c)
	fmt.Printf("%-14s  %10s  %10s  %10s\n", "algorithm", "avg CCT", "95p CCT", "reconfigs")
	report := func(name string, ccts []int64, reconfigs int) {
		vals := stats.Int64s(ccts)
		mean, _ := stats.Mean(vals)
		p95, _ := stats.Percentile(vals, 95)
		fmt.Printf("%-14s  %10.0f  %10.0f  %10d\n", name, mean, p95, reconfigs)
	}
	report("Reco-Mul", recoRes.CCTs, recoRes.Reconfigs)
	report("LP-II-GB", lpRes.CCTs, lpRes.Reconfigs)
	report("SEBF+Solstice", sebfRes.CCTs, sebfRes.Reconfigs)

	fmt.Println("\nper-class average CCT (ticks):")
	fmt.Printf("%-8s  %10s  %10s  %10s\n", "class", "Reco-Mul", "LP-II-GB", "SEBF+Sol")
	for _, cl := range []workload.Class{workload.Sparse, workload.Normal, workload.Dense} {
		var r, l, s, n float64
		for k := range ds {
			if workload.Classify(ds[k]) != cl {
				continue
			}
			n++
			r += float64(recoRes.CCTs[k])
			l += float64(lpRes.CCTs[k])
			s += float64(sebfRes.CCTs[k])
		}
		if n == 0 {
			continue
		}
		fmt.Printf("%-8s  %10.0f  %10.0f  %10.0f\n", cl, r/n, l/n, s/n)
	}
	fmt.Println("\nReco-Mul lets disjoint-port coflows share the fabric and aligns their")
	fmt.Println("start times so conflict-free flows share reconfigurations; the baselines")
	fmt.Println("hand the switch to one coflow (or group) at a time.")
}
