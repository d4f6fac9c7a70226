package workload

import (
	"fmt"
	"math/rand"
)

// ArrivalTimes draws a Poisson-like arrival process for n coflows:
// exponential inter-arrival gaps with the given mean (ticks), the first
// arrival at time 0. It is seeded independently of the demand generator so
// the same workload can be replayed under different load levels.
func ArrivalTimes(n int, meanGap int64, seed int64) ([]int64, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: n=%d", ErrBadConfig, n)
	}
	if meanGap < 0 {
		return nil, fmt.Errorf("%w: meanGap=%d", ErrBadConfig, meanGap)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	var at int64
	for i := range out {
		out[i] = at
		if meanGap > 0 {
			at += int64(rng.ExpFloat64() * float64(meanGap))
		}
	}
	return out, nil
}
