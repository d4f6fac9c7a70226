package core

import (
	"fmt"

	"reco/internal/schedule"
)

// InjectDelays converts a non-preemptive packet-switch schedule into an
// all-stop OCS schedule *without* regularizing start times: the switch
// reconfigures at every distinct original start instant. It is the ablation
// counterpart of RecoMul — the difference between the two isolates the
// contribution of start-time regularization (Sec. IV-A) — and also serves
// as the naive "just add δ whenever circuits change" transformation the
// paper argues against. Input that is not a packet-switch schedule (a gap,
// a port outside [0, n), End < Start, or two flows overlapping on a port)
// is ErrBadParam.
func InjectDelays(sp schedule.FlowSchedule, n int, delta int64) (*MulResult, error) {
	if delta < 0 {
		return nil, fmt.Errorf("%w: delta %d", ErrBadParam, delta)
	}
	if n <= 0 {
		return nil, fmt.Errorf("%w: n %d", ErrBadParam, n)
	}
	if delta == 0 || len(sp) == 0 {
		out := make(schedule.FlowSchedule, len(sp))
		copy(out, sp)
		return &MulResult{Flows: out}, nil
	}
	s := getMulScratch()
	defer mulPool.Put(s)
	fs, pushed, err := s.place(sp, n, func(t int64) int64 { return t })
	if err != nil {
		return nil, err
	}
	if pushed {
		return nil, fmt.Errorf("%w: input intervals overlap on a port", ErrBadParam)
	}
	return s.inject(sp, fs, n, delta), nil
}
