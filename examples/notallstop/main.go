// Notallstop: execute the same circuit schedule under the paper's two
// reconfiguration models (Sec. VI). In the all-stop model every
// reconfiguration halts the whole switch; in the not-all-stop model circuits
// carried over between establishments keep transmitting through the
// reconfiguration window, so schedules that reuse circuits finish earlier.
//
//	go run ./examples/notallstop
package main

import (
	"fmt"
	"log"

	"reco"
	"reco/internal/ocs"
)

func main() {
	// Ingress 0 has a large demand to egress 0 that spans two circuit
	// establishments; the (0,0) circuit is carried over between them.
	demand, err := reco.DemandFromRows([][]int64{
		{1000, 0, 0},
		{0, 400, 400},
		{0, 400, 400},
	})
	if err != nil {
		log.Fatal(err)
	}
	cs := ocs.CircuitSchedule{
		{Perm: []int{0, 1, 2}, Dur: 500}, // (0,0) (1,1) (2,2)
		{Perm: []int{0, 2, 1}, Dur: 500}, // (0,0) carried over; (1,2) (2,1) new
	}

	const delta = 100
	all, err := ocs.ExecAllStop(demand, cs, delta)
	if err != nil {
		log.Fatal(err)
	}
	nas, err := ocs.ExecNotAllStop(demand, cs, delta)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("hand-built schedule that carries circuit (0,0) across establishments")
	fmt.Printf("%-14s  %8s  %10s  %10s\n", "model", "CCT", "reconfigs", "conf time")
	fmt.Printf("%-14s  %8d  %10d  %10d\n", "all-stop", all.CCT, all.Reconfigs, all.ConfTime)
	fmt.Printf("%-14s  %8d  %10d  %10d\n", "not-all-stop", nas.CCT, nas.Reconfigs, nas.ConfTime)
	fmt.Printf("speedup: %.3fx\n\n", float64(all.CCT)/float64(nas.CCT))

	// The same comparison for a Reco-Sin schedule: feasibility and the
	// approximation guarantee carry over to the not-all-stop model
	// (Table III); whether it runs faster depends on how much circuit reuse
	// the decomposition happens to produce.
	shuffle, err := reco.DemandFromRows([][]int64{
		{900, 120, 0, 0},
		{0, 900, 130, 0},
		{0, 0, 900, 110},
		{140, 0, 0, 900},
	})
	if err != nil {
		log.Fatal(err)
	}
	allR, err := reco.ScheduleSingle(shuffle, delta)
	if err != nil {
		log.Fatal(err)
	}
	nasR, err := ocs.ExecNotAllStop(shuffle, allR.Schedule, delta)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Reco-Sin schedule (%d establishments) on a diagonal-heavy shuffle\n", len(allR.Schedule))
	fmt.Printf("%-14s  %8s  %10s\n", "model", "CCT", "reconfigs")
	fmt.Printf("%-14s  %8d  %10d\n", "all-stop", allR.CCT, allR.Reconfigs)
	fmt.Printf("%-14s  %8d  %10d\n", "not-all-stop", nasR.CCT, nasR.Reconfigs)
	fmt.Println("\nA feasible all-stop schedule is never slower under not-all-stop, so")
	fmt.Println("Reco's approximation ratios carry over (Sec. VI, Table III).")
}
