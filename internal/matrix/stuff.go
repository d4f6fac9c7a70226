package matrix

// Stuff returns a doubly stochastic copy of m: extra demand is added until
// every row sum and every column sum equals ρ, the maximum row/column sum of
// the input ("stuffing", Sec. III-A of the paper). The balanced strategy
// pairs deficient rows with deficient columns greedily, adding at most
// 2N−1 new entries.
//
// Because stuffing only increases entries, any circuit schedule that
// satisfies the stuffed matrix also satisfies the original demand.
func Stuff(m *Matrix) *Matrix {
	out := m.Clone()
	rows, cols, rho := out.sums()
	stuffTo(out, rows, cols, rho, false)
	return out
}

// StuffPreferNonZero is the Solstice-style QuickStuff variant: before
// creating any new non-zero entry it first tops up entries that are already
// non-zero, so the stuffed matrix's support (and hence the number of
// circuits a schedule must establish) grows as little as possible.
func StuffPreferNonZero(m *Matrix) *Matrix {
	out := m.Clone()
	StuffPreferNonZeroInPlace(out)
	return out
}

// StuffPreferNonZeroInPlace is StuffPreferNonZero on m itself, for a caller
// that owns a copy already and needs no second one.
func StuffPreferNonZeroInPlace(m *Matrix) {
	rows, cols, rho := m.sums()
	stuffTo(m, rows, cols, rho, true)
}

// stuffTo raises m's row sums rowDef and column sums colDef to target,
// consuming both slices as its deficit counters: the callers have just
// computed them to find ρ, and they are not summed a second time here.
func stuffTo(m *Matrix, rowDef, colDef []int64, target int64, preferNonZero bool) {
	for i := range rowDef {
		rowDef[i] = target - rowDef[i]
		colDef[i] = target - colDef[i]
	}

	if preferNonZero {
		// First pass: absorb deficit into existing non-zero entries so the
		// support does not grow.
		for i := 0; i < m.n; i++ {
			if rowDef[i] == 0 {
				continue
			}
			for j := 0; j < m.n && rowDef[i] > 0; j++ {
				if m.At(i, j) == 0 || colDef[j] == 0 {
					continue
				}
				add := min64(rowDef[i], colDef[j])
				m.Add(i, j, add)
				rowDef[i] -= add
				colDef[j] -= add
			}
		}
	}

	// Second pass: pair remaining deficient rows and columns arbitrarily.
	// Total row deficit equals total column deficit, so this terminates with
	// all deficits zero after at most 2N−1 additions.
	j := 0
	for i := 0; i < m.n; i++ {
		for rowDef[i] > 0 {
			for colDef[j] == 0 {
				j++
			}
			add := min64(rowDef[i], colDef[j])
			m.Add(i, j, add)
			rowDef[i] -= add
			colDef[j] -= add
		}
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
