// Package matching provides the bipartite-matching algorithms every circuit
// scheduler in this repository is built on: Hopcroft–Karp maximum-cardinality
// matching, thresholded perfect matching, bottleneck (max–min) perfect
// matching, and Hungarian maximum-weight perfect matching.
//
// All algorithms operate on balanced bipartite graphs whose left vertices are
// the fabric's ingress ports and whose right vertices are its egress ports; a
// matching is exactly a circuit establishment that respects the OCS port
// constraint.
package matching

import (
	"math/bits"

	"reco/internal/matrix"
	"reco/internal/obs"
)

// Graph is a balanced bipartite graph on n left and n right vertices,
// represented by one bitset row of right neighbours per left vertex
// ((n+63)/64 words each). Edges are therefore visited in column order,
// whatever order they were added in, and adding an edge twice is a no-op.
// At n ≤ 64 a row, the free set and each BFS layer are one word, and the
// greedy pass, bfs and nextColumn take a path that reads them as such.
//
// A Graph is reusable: Reset clears the edge set and the current matching
// while keeping every backing array, so a Graph that has reached its
// steady-state capacity performs no allocations across Reset/AddEdge/
// augmentation cycles. The matching state persists across AddEdge calls,
// which is what the incremental engines build on: inserting edges never
// shrinks a matching, so augmentation alone repairs maximality.
type Graph struct {
	n     int
	words int      // uint64 words per bitset
	rows  []uint64 // n rows of words: bit v of row u is the edge (u, v)

	// Matching state and pooled scratch. matchL/matchR hold the current
	// matching (-1 = unmatched); dist, iter and stack are the Hopcroft–Karp
	// BFS/DFS workspaces, reused across phases.
	matchL  []int32
	matchR  []int32
	dist    []int32
	iter    []int32
	stack   []int32
	matched int

	// Right-vertex sets of the current phase, kept exact while the DFS
	// changes labels and the matching: free holds the unmatched right
	// vertices, and layer d (words d·words…) the matched ones whose partner
	// has dist d, for d in 1..n. reach and seen are BFS scratch.
	free   []uint64
	layers []uint64
	reach  []uint64
	seen   []uint64
}

// NewGraph returns an empty bipartite graph with n vertices on each side.
func NewGraph(n int) *Graph {
	g := &Graph{}
	g.Reset(n)
	return g
}

// Reset clears g to an empty edge set and empty matching on n vertices per
// side, reusing all backing storage.
func (g *Graph) Reset(n int) {
	w := (n + 63) / 64
	g.n, g.words = n, w
	g.rows = grow64(g.rows, n*w)
	clear(g.rows)
	g.layers = grow64(g.layers, (n+1)*w) // written by bfs before any read
	g.free = grow64(g.free, w)
	g.reach = grow64(g.reach, w)
	g.seen = grow64(g.seen, w)
	g.matchL = grow32(g.matchL, n)
	g.matchR = grow32(g.matchR, n)
	g.dist = grow32(g.dist, n)
	g.iter = grow32(g.iter, n)
	if g.stack == nil {
		g.stack = make([]int32, 0, n)
	}
	g.clearMatching()
}

// clearMatching empties the matching and keeps the edges, so the next
// augment recomputes the matching a fresh graph with these edges would get.
func (g *Graph) clearMatching() {
	for i := range g.matchL {
		g.matchL[i] = -1
		g.matchR[i] = -1
	}
	g.matched = 0
}

// grow32 returns a slice of length n reusing s's backing array when possible.
func grow32(s []int32, n int) []int32 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int32, n)
}

// grow64 is grow32 for bitset words.
func grow64(s []uint64, n int) []uint64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]uint64, n)
}

// row returns left vertex u's bitset of right neighbours.
func (g *Graph) row(u int32) []uint64 {
	return g.rows[int(u)*g.words:][:g.words]
}

// layer returns the set of matched right vertices whose partner has dist d.
func (g *Graph) layer(d int32) []uint64 {
	return g.layers[int(d)*g.words:][:g.words]
}

// AddEdge adds an edge between left vertex u and right vertex v.
// Indices follow slice semantics: out-of-range values panic.
func (g *Graph) AddEdge(u, v int) {
	if v < 0 || v >= g.n {
		panic("matching: right vertex out of range")
	}
	g.addEdge32(int32(u), int32(v))
}

// addEdge32 is AddEdge for callers that already hold validated int32 indices.
func (g *Graph) addEdge32(u, v int32) {
	g.rows[int(u)*g.words+int(v>>6)] |= 1 << (v & 63)
}

// RemoveEdge deletes the edge between left vertex u and right vertex v, if
// present, and empties the matching, so the next MaxMatching computes from
// scratch the matching a graph loaded with the remaining edges gets. Once
// the matching is empty, further removals cost one bit clear each.
// Indices follow slice semantics: out-of-range values panic.
func (g *Graph) RemoveEdge(u, v int) {
	if v < 0 || v >= g.n {
		panic("matching: right vertex out of range")
	}
	g.removeEdge32(int32(u), int32(v))
	if g.matched > 0 {
		g.clearMatching()
	}
}

// removeEdge32 deletes the edge (u, v). The matching is left alone, so a
// caller that removes a matched pair's edge must clearMatching before the
// next augment.
func (g *Graph) removeEdge32(u, v int32) {
	g.rows[int(u)*g.words+int(v>>6)] &^= 1 << (v & 63)
}

// coverage fills left and right with the vertices that have at least one
// edge and returns how many of the 2n vertices have none.
func (g *Graph) coverage(left, right []uint64) (uncovered int) {
	clear(left)
	clear(right)
	for u := int32(0); u < int32(g.n); u++ {
		deg := uint64(0)
		for k, x := range g.row(u) {
			right[k] |= x
			deg |= x
		}
		if deg != 0 {
			left[u>>6] |= 1 << (u & 63)
		}
	}
	uncovered = 2 * g.n
	for k := range right {
		uncovered -= bits.OnesCount64(left[k]) + bits.OnesCount64(right[k])
	}
	return uncovered
}

// adopt records (u, v) as a matched pair. Both endpoints must be free; the
// incremental engines use it to seed the matching greedily as edges arrive,
// saving augmentation searches.
func (g *Graph) adopt(u, v int32) {
	g.matchL[u] = v
	g.matchR[v] = u
	g.matched++
}

// LoadThreshold resets g to m's dimension, with an empty matching, and adds
// every entry of m with positive value at least threshold.
func (g *Graph) LoadThreshold(m *matrix.Matrix, threshold int64) {
	n := m.N()
	g.Reset(n)
	cells := m.Cells()
	for i := 0; i < n; i++ {
		for j, v := range cells[i*n : (i+1)*n] {
			if v > 0 && v >= threshold {
				g.addEdge32(int32(i), int32(j))
			}
		}
	}
}

// infDist marks unreached vertices during the Hopcroft–Karp BFS phase.
const infDist = int32(^uint32(0) >> 1)

// MaxMatching computes a maximum-cardinality matching with the Hopcroft–Karp
// algorithm in O(E·√V). It returns matchL, where matchL[u] is the right
// vertex matched to left vertex u or −1, and the matching size. The returned
// slice is caller-owned. Augmentation starts from the graph's current
// matching state (empty after Reset, LoadThreshold or RemoveEdge), so
// repeated calls are idempotent and calls interleaved with AddEdge are
// incremental.
func (g *Graph) MaxMatching() (matchL []int, size int) {
	obs.Current().Inc("matching_hopcroftkarp_total")
	g.augment()
	return g.permutation(), g.matched
}

// PerfectMatching is MaxMatching for a caller that wants only a perfect
// matching: it returns the matching as a caller-owned permutation when it
// is perfect, and nil, allocating nothing, when it is not. The graph's
// matching state is left as MaxMatching leaves it.
func (g *Graph) PerfectMatching() []int {
	obs.Current().Inc("matching_hopcroftkarp_total")
	if g.augment() != g.n {
		return nil
	}
	return g.permutation()
}

// permutation returns the current matching as a caller-owned slice: entry u
// is the right vertex matched to u, or −1.
func (g *Graph) permutation() []int {
	out := make([]int, g.n)
	for u, v := range g.matchL {
		out[u] = int(v)
	}
	return out
}

// augment grows the current matching to maximum cardinality by running
// Hopcroft–Karp phases until no augmenting path remains (or the matching is
// perfect), and returns the matching size. From an empty matching the first
// phase is the greedy pass. After a return with matched < n, dist holds the
// alternating-path reachability labels of the final failed BFS, which the
// incremental bottleneck engine uses to gate future searches.
func (g *Graph) augment() int {
	if g.matched == 0 {
		g.greedy()
	}
	for g.matched < g.n && g.bfs() {
		for u := int32(0); u < int32(g.n); u++ {
			if g.matchL[u] == -1 && g.dfs(u) {
				g.matched++
			}
		}
	}
	return g.matched
}

// greedy runs the first Hopcroft–Karp phase from an empty matching in one
// pass: row u, in order, takes its lowest column no earlier row took. That
// is what the phase's BFS and DFS calls do. With every vertex free, layer 1
// is empty, so each search stops at the lowest free column of its root's
// row, or fails without touching any set; the next BFS starts over from the
// matching alone.
func (g *Graph) greedy() {
	if g.words == 1 {
		used := uint64(0)
		for u, x := range g.rows[:g.n] {
			if x &^= used; x != 0 {
				v := int32(bits.TrailingZeros64(x))
				used |= 1 << v
				g.adopt(int32(u), v)
			}
		}
		return
	}
	used := g.seen
	clear(used)
	for u := int32(0); u < int32(g.n); u++ {
		for k, x := range g.row(u) {
			if x &^= used[k]; x != 0 {
				v := int32(k<<6 + bits.TrailingZeros64(x))
				used[k] |= 1 << (v & 63)
				g.adopt(u, v)
				break
			}
		}
	}
}

// bfs layers the graph by shortest alternating-path distance from the free
// left vertices and reports whether any augmenting path exists. It is
// level-synchronous: the union of the frontier's rows is the set of right
// vertices one step away, and the partners of those not seen before are the
// next frontier. Labels do not depend on the order within a level, so dist
// equals what a queue over adjacency lists assigns; the search runs to
// exhaustion, as that one does, rather than stopping at the first free
// right vertex.
func (g *Graph) bfs() bool {
	if g.words == 1 {
		return g.bfs1()
	}
	reach, seen, free := g.reach, g.seen, g.free
	clear(reach)
	clear(seen)
	clear(free)
	for u := int32(0); u < int32(g.n); u++ {
		if g.matchR[u] == -1 {
			free[u>>6] |= 1 << (u & 63)
		}
		if g.matchL[u] == -1 {
			g.dist[u] = 0
			for k, x := range g.row(u) {
				reach[k] |= x
			}
		} else {
			g.dist[u] = infDist
		}
	}
	found := false
	for d := int32(1); ; d++ {
		next := g.layer(d)
		union := uint64(0)
		for k, x := range reach {
			found = found || x&free[k] != 0
			next[k] = x &^ free[k] &^ seen[k]
			seen[k] |= next[k]
			union |= next[k]
		}
		if union == 0 {
			return found
		}
		clear(reach)
		for k, x := range next {
			for ; x != 0; x &= x - 1 {
				w := g.matchR[k<<6+bits.TrailingZeros64(x)]
				g.dist[w] = d
				for j, y := range g.row(w) {
					reach[j] |= y
				}
			}
		}
	}
}

// bfs1 is bfs for graphs of at most 64 vertices per side, with each row,
// the free set and each layer one word.
func (g *Graph) bfs1() bool {
	rows := g.rows[:g.n]
	free, reach := uint64(0), uint64(0)
	for u, x := range rows {
		if g.matchR[u] == -1 {
			free |= 1 << u
		}
		if g.matchL[u] == -1 {
			g.dist[u] = 0
			reach |= x
		} else {
			g.dist[u] = infDist
		}
	}
	g.free[0] = free
	found := reach&free != 0
	seen := uint64(0)
	for d := int32(1); ; d++ {
		next := reach &^ free &^ seen
		g.layers[d] = next
		if next == 0 {
			return found
		}
		seen |= next
		reach = 0
		for ; next != 0; next &= next - 1 {
			w := g.matchR[bits.TrailingZeros64(next)]
			g.dist[w] = d
			reach |= rows[w]
		}
		found = found || reach&free != 0
	}
}

// dfs searches for an augmenting path from free left vertex root along the
// BFS layering and applies it. It is an explicit-stack transcription of the
// textbook recursion (each visit scans the vertex's adjacency from the
// start, and a vertex that fails is closed with dist = inf), so it yields
// exactly the same matching while keeping the steady state free of
// recursion and allocation. Where the recursion tests one column at a time,
// this takes the lowest column at or past the vertex's iterator that is
// free or whose partner is on the next layer, from row & (free | layer):
// that is the column the scan stops at, since the ones it passes over have
// no side effect. That needs free and the layer sets to stay what a scan
// would see, so a closed vertex takes its partner out of its layer, and an
// applied path moves each of its right vertices to the layer of its new
// partner — the recursion can re-enter a path vertex through its new
// partner within the same phase.
func (g *Graph) dfs(root int32) bool {
	st := append(g.stack[:0], root)
	g.iter[root] = 0
	for len(st) > 0 {
		u := st[len(st)-1]
		v := g.nextColumn(u)
		if v == -1 {
			if p := g.matchL[u]; p != -1 {
				g.layer(g.dist[u])[p>>6] &^= 1 << (p & 63)
			}
			g.dist[u] = infDist
			st = st[:len(st)-1]
			continue
		}
		g.iter[u] = v + 1
		if w := g.matchR[v]; w != -1 {
			st = append(st, w)
			g.iter[w] = 0
			continue
		}
		// Free right vertex: the stack is an augmenting path. The vertex at
		// depth k has dist k and takes the column its iterator last
		// advanced past, which until now belonged to depth k+1.
		g.free[v>>6] &^= 1 << (v & 63)
		for k := int32(len(st)) - 1; k >= 0; k-- {
			x := st[k]
			vx := g.iter[x] - 1
			if k < int32(len(st))-1 {
				g.layer(k + 1)[vx>>6] &^= 1 << (vx & 63)
			}
			if k > 0 {
				g.layer(k)[vx>>6] |= 1 << (vx & 63)
			}
			g.matchL[x] = vx
			g.matchR[vx] = x
		}
		g.stack = st[:0]
		return true
	}
	g.stack = st[:0]
	return false
}

// nextColumn returns the lowest neighbour of u at or past iter[u] that is
// free or matched to a vertex one layer below u, or -1.
func (g *Graph) nextColumn(u int32) int32 {
	if g.words == 1 {
		x := g.rows[u] & (g.free[0] | g.layers[g.dist[u]+1]) & (^uint64(0) << g.iter[u])
		if x == 0 {
			return -1
		}
		return int32(bits.TrailingZeros64(x))
	}
	row, lay := g.row(u), g.layer(g.dist[u]+1)
	from := int(g.iter[u])
	for k := from >> 6; k < g.words; k++ {
		x := row[k] & (g.free[k] | lay[k])
		if k == from>>6 {
			x &= ^uint64(0) << (from & 63)
		}
		if x != 0 {
			return int32(k<<6 + bits.TrailingZeros64(x))
		}
	}
	return -1
}
