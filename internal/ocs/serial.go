package ocs

import "reco/internal/matrix"

// SinglePortSchedule returns the optimal one-flow-at-a-time circuit
// schedule for demand matrices whose non-zero entries share one ingress or
// one egress port (the S2S/S2M/M2S transmission modes of Sec. V-A), and ok
// = false for anything else. Such coflows admit no parallelism — every flow
// blocks on the shared port — so serving flows back-to-back is exactly
// optimal, as the paper notes, and both Reco-Sin and Solstice defer to it.
func SinglePortSchedule(d *matrix.Matrix) (CircuitSchedule, bool) {
	// All non-zeros share a row or a column exactly when the fullest row or
	// column holds every one of them: a matrix that knows its τ and its
	// non-zero count answers without being read. One that does not is read
	// until the first sign of two rows and two columns.
	count := 0
	if sum, known := d.Summary(); known {
		if sum.Tau != sum.NonZeros {
			return nil, false
		}
		count = sum.NonZeros
	} else if count = singlePortCount(d); count < 0 {
		return nil, false
	}
	if count == 0 {
		return nil, true // empty demand: the empty schedule is optimal
	}
	// One pass over the support, ended at its last non-zero.
	n := d.N()
	cs := make(CircuitSchedule, 0, count)
	for idx, v := range d.Cells() {
		if len(cs) == count {
			break
		}
		if v == 0 {
			continue
		}
		perm := make([]int, n)
		for p := range perm {
			perm[p] = -1
		}
		perm[idx/n] = idx % n
		cs = append(cs, Assignment{Perm: perm, Dur: v})
	}
	return cs, true
}

// singlePortCount returns the number of non-zero entries of d when they
// share one row or one column, and -1 as soon as they are seen not to.
func singlePortCount(d *matrix.Matrix) int {
	n := d.N()
	row, col, count := -1, -1, 0
	multiRow, multiCol := false, false
	for idx, v := range d.Cells() {
		if v == 0 {
			continue
		}
		if count == 0 {
			row, col = idx/n, idx%n
		}
		multiRow = multiRow || idx/n != row
		multiCol = multiCol || idx%n != col
		if multiRow && multiCol {
			return -1
		}
		count++
	}
	return count
}
