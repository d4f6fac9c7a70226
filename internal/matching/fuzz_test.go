package matching

import (
	"math/rand"
	"testing"
)

// fuzzGraph decodes a fuzz input: the first byte picks n in [1, 130], and
// bit u·n+v of the rest (missing bytes read as zero) says whether the edge
// (u, v) is present.
func fuzzGraph(data []byte) (n int, adj [][]int) {
	if len(data) == 0 {
		return 1, make([][]int, 1)
	}
	n = 1 + int(data[0])%130
	bitsOf := data[1:]
	adj = make([][]int, n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if k := u*n + v; k>>3 < len(bitsOf) && bitsOf[k>>3]>>(k&7)&1 == 1 {
				adj[u] = append(adj[u], v)
			}
		}
	}
	return n, adj
}

// fuzzInput is fuzzGraph's inverse, for the seed corpus.
func fuzzInput(n int, edge func(u, v int) bool) []byte {
	data := make([]byte, 1+(n*n+7)/8)
	data[0] = byte(n - 1)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if edge(u, v) {
				k := u*n + v
				data[1+k>>3] |= 1 << (k & 7)
			}
		}
	}
	return data
}

// FuzzGraphMatchesReference holds the bitset Hopcroft–Karp to the recursive
// adjacency-list one on arbitrary graphs up to three words wide: the same
// matching entry for entry, and — what the bottleneck sweep's search gate
// reads — after a non-perfect result, dist finite on exactly the left
// vertices an alternating path reaches from a free one.
func FuzzGraphMatchesReference(f *testing.F) {
	f.Add([]byte{7})                                                             // empty graph, n = 8
	f.Add(fuzzInput(65, func(u, v int) bool { return true }))                    // complete, one bit into the second word
	f.Add(fuzzInput(9, func(u, v int) bool { return v < 4 }))                    // no perfect matching
	f.Add(fuzzInput(130, func(u, v int) bool { return v == u%129 || v == u+1 })) // one augmenting chain through every vertex
	// About three edges per row at n = 70: sparse enough that a later search
	// of a phase re-enters a vertex an earlier path of that phase re-matched.
	rng := rand.New(rand.NewSource(10))
	f.Add(fuzzInput(70, func(u, v int) bool { return rng.Intn(70) < 3 }))
	f.Fuzz(func(t *testing.T, data []byte) {
		n, adj := fuzzGraph(data)
		g := NewGraph(n)
		for u, vs := range adj {
			for _, v := range vs {
				g.AddEdge(u, v)
			}
		}
		want, wantSize := refMaxMatching(n, adj)
		got, size := g.MaxMatching()
		if size != wantSize {
			t.Fatalf("n=%d: size %d, reference %d", n, size, wantSize)
		}
		for u := range want {
			if got[u] != want[u] {
				t.Fatalf("n=%d: matchL[%d] = %d, reference %d", n, u, got[u], want[u])
			}
		}
		if size == n {
			return
		}
		// Alternating reachability from the free left vertices: any edge
		// out, the matching edge back.
		matchR := make([]int, n)
		for v := range matchR {
			matchR[v] = -1
		}
		reached := make([]bool, n)
		var queue []int
		for u, v := range want {
			if v == -1 {
				reached[u] = true
				queue = append(queue, u)
			} else {
				matchR[v] = u
			}
		}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if w := matchR[v]; w != -1 && !reached[w] {
					reached[w] = true
					queue = append(queue, w)
				}
			}
		}
		for u := range reached {
			if (g.dist[u] != infDist) != reached[u] {
				t.Fatalf("n=%d: dist[%d] = %d, alternating-reachable = %v", n, u, g.dist[u], reached[u])
			}
		}
	})
}
