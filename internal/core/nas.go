package core

import "reco/internal/schedule"

// RecoMulNAS is the not-all-stop variant of RecoMul (Sec. VI): the same
// stretch-and-snap regularization of start times, but a reconfiguration
// stalls only the circuits being established — a starting flow waits δ for
// its own setup while flows in flight elsewhere keep transmitting. Flows
// that continue a circuit back-to-back on the same port pair skip even
// their own setup.
//
// The schedule is feasible by the same argument as the all-stop variant
// (every flow shifts right by at most δ, preserving per-port order), and
// Theorem 3's ratio carries over unchanged, as the paper's Table III notes:
// the not-all-stop completion of each flow is never later than its all-stop
// completion.
func RecoMulNAS(sp schedule.FlowSchedule, n int, delta, c int64) (*MulResult, error) {
	s := getMulScratch()
	defer mulPool.Put(s)
	flows, res, err := s.placeOnGrid(sp, n, delta, c)
	if res != nil || err != nil {
		return res, err
	}

	// Map pseudo time to real time by per-port propagation: a flow starts
	// when its intended (regularized) instant arrives and both its ports
	// are free in real time, then pays its own δ setup — unless it
	// continues the circuit its pair was using back-to-back, which needs no
	// setup. Setups on one port pair delay only that pair's timeline;
	// everything else keeps transmitting (the not-all-stop property).
	lastPseudoEnd := make(map[[2]int]int64, len(flows))
	realFreeIn := make([]int64, n)
	realFreeOut := make([]int64, n)
	setups := 0
	res = &MulResult{Flows: make(schedule.FlowSchedule, len(flows))}
	for idx, f := range flows {
		out := sp[f.idx]
		key := [2]int{f.in, f.out}
		last, ok := lastPseudoEnd[key]
		continuation := ok && last == f.start
		if end := f.start + out.Duration(); end > lastPseudoEnd[key] {
			lastPseudoEnd[key] = end
		}
		start := max(f.start, realFreeIn[f.in], realFreeOut[f.out])
		if !continuation {
			setups++
			start += delta
		}
		out.End = start + out.Duration()
		out.Start = start
		realFreeIn[f.in] = out.End
		realFreeOut[f.out] = out.End
		res.Flows[idx] = out
	}
	res.Reconfigs = setups
	res.ConfTime = int64(setups) * delta
	return res, nil
}
