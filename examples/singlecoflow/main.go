// Singlecoflow: schedule a realistic MapReduce shuffle with Reco-Sin and
// compare it against Solstice and the theoretical lower bound across a sweep
// of reconfiguration delays — the scenario of the paper's Figs. 4 and 5.
//
//	go run ./examples/singlecoflow
package main

import (
	"context"
	"fmt"
	"log"

	"reco"
	"reco/internal/algo"
	_ "reco/internal/algo/builtin" // the solstice row
	"reco/internal/workload"
)

func main() {
	// One shuffle-heavy workload on a 48-port fabric; pick its densest
	// coflow as the subject (dense M2M coflows carry nearly all bytes).
	coflows, err := reco.GenerateWorkload(48, 60, 7)
	if err != nil {
		log.Fatal(err)
	}
	var subject reco.Coflow
	for _, c := range coflows {
		if workload.Classify(c.Demand) == workload.Dense {
			subject = c
			break
		}
	}
	if subject.Demand == nil {
		log.Fatal("no dense coflow in the workload")
	}
	fmt.Printf("subject: coflow %d, %d ports, density %.2f, %d flows, %d total ticks\n\n",
		subject.ID, subject.Demand.N(), subject.Demand.Density(),
		subject.Demand.NonZeros(), subject.Demand.Total())

	fmt.Printf("%8s  %22s  %22s  %10s\n", "delta", "Reco-Sin (CCT/reconf)", "Solstice (CCT/reconf)", "lowerbound")
	for _, delta := range []int64{10, 100, 1000, 10000} {
		recoRes, err := reco.ScheduleSingle(subject.Demand, delta)
		if err != nil {
			log.Fatal(err)
		}
		solRes, err := algo.MustGet(algo.NameSolstice).Schedule(context.Background(),
			algo.Request{Demands: []*reco.Demand{subject.Demand}, Delta: delta})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%8d  %13d /%7d  %13d /%7d  %10d\n",
			delta, recoRes.CCT, recoRes.Reconfigs, solRes.CCTs[0], solRes.Reconfigs,
			recoRes.LowerBound)
	}
	fmt.Println("\nReco-Sin's reconfiguration count falls as delta grows (regularization")
	fmt.Println("aligns more demand), while Solstice's schedule is delta-independent.")
}
