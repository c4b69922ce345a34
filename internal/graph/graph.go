// Package graph implements the decomposition graph of the DAC'14 paper
// (Definition 1): an undirected graph with one vertex per polygonal feature
// fragment and two edge sets, conflict edges (CE, features within the
// minimum coloring distance) and stitch edges (SE, stitch candidates inside
// one feature). A third edge set records the paper's color-friendly pairs
// (Definition 2, distance in (mins, mins+hp)), which the linear color
// assignment consults as soft same-color hints.
//
// A graph is built once, by Builder, and never edited: each edge kind is
// stored as compressed sparse rows, one offsets array and one id array.
//
// The package also provides the structural operations the graph-division
// pipeline needs: connected components, iterative peeling of vertices with
// conflict degree < K, biconnected components and articulation points, and
// vertex-subset extraction.
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Graph is the decomposition graph. Vertices are dense integers [0, N).
// Adjacency lists are kept deduplicated, loop-free, and sorted ascending —
// the sort order is what lets edge membership tests run in O(log deg) and
// what makes the graph a pure function of its edge set (insertion order
// never shows through), the determinism contract the golden suites pin.
//
// A Graph is immutable once built. Builder (csr.go) constructs it — the
// scratch build and ApplyEdits' dirty-region rebuild both do — and Subgraph
// copies filtered pieces out of one. Each edge kind is one offsets array
// and one id array (csr); the row accessors hand out read-only
// full-capacity views, so an append by a caller reallocates instead of
// overwriting the next row.
type Graph struct {
	n       int
	conf    csr
	stit    csr
	friend  csr
	nConf   int
	nStit   int
	nFriend int
}

// csr is one edge kind's adjacency in compressed sparse row form: row v is
// adj[off[v]:off[v+1]]. A kind with no edges leaves both nil.
type csr struct {
	off []int32 // n+1 row starts
	adj []int32
}

// row returns v's row as a full-capacity view.
func (c *csr) row(v int) []int32 {
	if c.off == nil {
		return nil
	}
	lo, hi := c.off[v], c.off[v+1]
	return c.adj[lo:hi:hi]
}

// N returns the vertex count.
func (g *Graph) N() int { return g.n }

// ConflictEdgeCount returns |CE|.
func (g *Graph) ConflictEdgeCount() int { return g.nConf }

// StitchEdgeCount returns |SE|.
func (g *Graph) StitchEdgeCount() int { return g.nStit }

// FriendEdgeCount returns the number of color-friendly pairs.
func (g *Graph) FriendEdgeCount() int { return g.nFriend }

// HasConflict reports whether {u,v} is a conflict edge.
func (g *Graph) HasConflict(u, v int) bool {
	if u < 0 || v < 0 || u >= g.n || v >= g.n || u == v {
		return false
	}
	_, found := slices.BinarySearch(g.conf.row(u), int32(v))
	return found
}

// ConflictDegree returns dconf(v), the number of conflict edges at v.
func (g *Graph) ConflictDegree(v int) int { return len(g.conf.row(v)) }

// StitchDegree returns dstit(v), the number of stitch edges at v.
func (g *Graph) StitchDegree(v int) int { return len(g.stit.row(v)) }

// ConflictNeighbors returns the conflict adjacency of v. The slice is owned
// by the graph; callers must not modify it.
func (g *Graph) ConflictNeighbors(v int) []int32 { return g.conf.row(v) }

// StitchNeighbors returns the stitch adjacency of v (read-only).
func (g *Graph) StitchNeighbors(v int) []int32 { return g.stit.row(v) }

// FriendNeighbors returns the color-friendly adjacency of v (read-only).
func (g *Graph) FriendNeighbors(v int) []int32 { return g.friend.row(v) }

// Edge is an undirected vertex pair with U < V.
type Edge struct {
	U, V int
}

// ConflictEdges returns all conflict edges with U < V, sorted.
func (g *Graph) ConflictEdges() []Edge { return collectEdges(&g.conf, g.n, g.nConf) }

// StitchEdges returns all stitch edges with U < V, sorted.
func (g *Graph) StitchEdges() []Edge { return collectEdges(&g.stit, g.n, g.nStit) }

// collectEdges lists the m edges of one kind over n vertices. Rows ascend
// and are visited in vertex order, so the list comes out sorted by (U, V).
func collectEdges(c *csr, n, m int) []Edge {
	out := make([]Edge, 0, m)
	for u := 0; u < n; u++ {
		for _, v := range c.row(u) {
			if int(v) > u {
				out = append(out, Edge{U: u, V: int(v)})
			}
		}
	}
	return out
}

// Components returns the connected components of the graph under the union
// of conflict and stitch edges (independent component computation of the
// division pipeline). Each component is a sorted vertex list.
func (g *Graph) Components() [][]int {
	all := make([]int, g.n)
	for i := range all {
		all[i] = i
	}
	return g.InducedComponents(all, nil)
}

// InducedComponents returns the connected components, under the union of
// conflict and stitch edges, of the subgraph induced by vertices (distinct
// and ascending), read straight off g's rows with no copy of the induced
// subgraph. Components are ordered by smallest member and each is an
// ascending list of g's vertex ids: Subgraph(vertices).Components() mapped
// back to g's ids. mark is a caller-leased table with the same contract as
// Subgraph's index (all zero, at least g.N() long, left all zero); nil
// allocates one.
func (g *Graph) InducedComponents(vertices []int, mark []int32) [][]int {
	if mark == nil {
		mark = make([]int32, g.n)
	}
	for _, v := range vertices {
		mark[v] = unreached
	}
	var out [][]int
	stack := make([]int, 0, 64)
	for _, s := range vertices {
		if mark[s] != unreached {
			continue
		}
		var members []int
		stack, members = g.flood(s, mark, stack, nil)
		sort.Ints(members)
		out = append(out, members)
	}
	clearIndex(mark, vertices)
	return out
}

// ComponentCount returns len(g.Components()) from the same walk, without
// listing any component. mark is a caller-leased table, all zero and at
// least g.N() long, and is left all zero.
func (g *Graph) ComponentCount(mark []int32) int {
	mark = mark[:g.n]
	for v := range mark {
		mark[v] = unreached
	}
	count := 0
	var stack, members []int
	for s := range mark {
		if mark[s] == unreached {
			count++
			stack, members = g.flood(s, mark, stack, members[:0])
		}
	}
	clear(mark)
	return count
}

// The walk's mark states: a member of the induced subgraph not yet reached,
// and a reached one. Unmarked vertices are outside the subgraph.
const unreached, reached = 1, 2

// flood is the component walk: a DFS from the unreached member s over
// conflict and stitch rows that marks every member it reaches as reached and
// appends it to members. stack is reused scratch; flood returns it and
// members grown.
func (g *Graph) flood(s int, mark []int32, stack, members []int) ([]int, []int) {
	mark[s] = reached
	stack = append(stack[:0], s)
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		members = append(members, u)
		for _, row := range [2][]int32{g.conf.row(u), g.stit.row(u)} {
			for _, w := range row {
				if mark[w] == unreached {
					mark[w] = reached
					stack = append(stack, int(w))
				}
			}
		}
	}
	return stack, members
}

// Subgraph extracts the induced subgraph over the given vertices, with
// vertex i of the result standing for vertices[i], so vertices itself maps
// the result's ids back to g's. Edges of every kind are preserved when both
// endpoints are inside the subset.
//
// The result is a filtered CSR copy: each member's adjacency row is copied,
// neighbors outside the subset dropped and the rest relabeled, into one
// offsets array and one id array per edge kind. Membership is looked up in index, a caller-leased
// table that must be all zero and at least g.N() long: Subgraph stamps
// index[vertices[i]] = i+1 and re-zeroes exactly those entries before it
// returns (or panics), so a caller extracting many pieces leases one table
// and never clears it. A nil index allocates one. Relabeling preserves
// order when vertices ascends, so the copied rows are already sorted; any
// other order sorts each row.
func (g *Graph) Subgraph(vertices []int, index []int32) *Graph {
	if index == nil {
		index = make([]int32, g.n)
	} else if len(index) < g.n {
		panic(fmt.Sprintf("graph: subgraph index has %d entries, graph has %d vertices", len(index), g.n))
	}
	ascending := true
	for i, v := range vertices {
		if v < 0 || v >= g.n || index[v] != 0 {
			clearIndex(index, vertices[:i])
			if v < 0 || v >= g.n {
				panic(fmt.Sprintf("graph: subgraph vertex %d out of range", v))
			}
			panic(fmt.Sprintf("graph: subgraph vertex %d repeated", v))
		}
		index[v] = int32(i + 1)
		ascending = ascending && (i == 0 || vertices[i-1] < v)
	}
	sub := &Graph{n: len(vertices)}
	sub.conf, sub.nConf = filterRows(&g.conf, vertices, index, ascending)
	sub.stit, sub.nStit = filterRows(&g.stit, vertices, index, ascending)
	sub.friend, sub.nFriend = filterRows(&g.friend, vertices, index, ascending)
	clearIndex(index, vertices)
	return sub
}

// filterRows copies one edge kind's rows of the stamped members into one
// offsets array and one id array, keeping only member neighbors under their
// new labels, and returns them plus the number of undirected edges kept.
// A kind with no member rows allocates nothing.
func filterRows(c *csr, vertices []int, index []int32, ascending bool) (csr, int) {
	size := 0
	for _, v := range vertices {
		size += len(c.row(v))
	}
	if size == 0 {
		return csr{}, 0
	}
	off := make([]int32, len(vertices)+1)
	adj := make([]int32, 0, size)
	for i, v := range vertices {
		start := len(adj)
		for _, w := range c.row(v) {
			if j := index[w]; j != 0 {
				adj = append(adj, j-1)
			}
		}
		if !ascending {
			slices.Sort(adj[start:])
		}
		off[i+1] = int32(len(adj))
	}
	return csr{off: off, adj: adj}, len(adj) / 2
}

// clearIndex re-zeroes the index entries Subgraph stamped for vertices.
func clearIndex(index []int32, vertices []int) {
	for _, v := range vertices {
		index[v] = 0
	}
}

// PeelOrder computes the iterative low-degree vertex removal of Algorithm 2
// (stage 1) and the division pipeline: repeatedly remove a vertex whose
// remaining conflict degree is < k and stitch degree is < maxStitch,
// pushing it onto a stack. It returns the removal stack (in removal order)
// and the sorted list of remaining "core" vertices. The graph itself is not
// modified; removal is simulated with degree counters.
//
// The removal is a FIFO seeded with the qualifying vertices in ascending
// id. A vertex enters the queue at most once and leaves it removed, so the
// queue itself, once drained, is the stack.
//
// When a removed vertex is later popped and colored, one of the k colors is
// always conflict-free because fewer than k conflict neighbors remain — the
// paper's safety argument.
func (g *Graph) PeelOrder(k, maxStitch int) (stack []int, core []int) {
	deg := make([]int32, g.n)
	sdeg := make([]int32, g.n)
	// queued marks vertices that are, or were, in the queue. Decrementing
	// the degree of a queued vertex is harmless: it is never read again.
	queued := make([]bool, g.n)
	queue := make([]int, 0, g.n)
	for v := 0; v < g.n; v++ {
		deg[v], sdeg[v] = int32(len(g.conf.row(v))), int32(len(g.stit.row(v)))
		if int(deg[v]) < k && int(sdeg[v]) < maxStitch {
			queued[v] = true
			queue = append(queue, v)
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, w := range g.conf.row(v) {
			deg[w]--
			if !queued[w] && int(deg[w]) < k && int(sdeg[w]) < maxStitch {
				queued[w] = true
				queue = append(queue, int(w))
			}
		}
		for _, w := range g.stit.row(v) {
			sdeg[w]--
			if !queued[w] && int(deg[w]) < k && int(sdeg[w]) < maxStitch {
				queued[w] = true
				queue = append(queue, int(w))
			}
		}
	}
	for v := 0; v < g.n; v++ {
		if !queued[v] {
			core = append(core, v)
		}
	}
	return queue, core
}

// BiconnectedComponents computes the 2-vertex-connected components of the
// conflict graph (stitch edges are treated as binding too, since a stitch
// couples the coloring of its endpoints). It returns one vertex set per
// block and the articulation (cut) vertices. Isolated vertices form
// singleton blocks.
//
// The DFS walks v's conflict row and then its stitch row by one index, so
// no merged adjacency is materialized; a block's vertices are deduplicated
// with a per-call stamp array (stamp = block number + 1), not a map.
func (g *Graph) BiconnectedComponents() (blocks [][]int, cuts []int) {
	const none = -1
	disc := make([]int, g.n)
	low := make([]int, g.n)
	seen := make([]int32, g.n)
	isCut := make([]bool, g.n)
	for i := range disc {
		disc[i] = none
	}
	timer := 0

	type frame struct {
		v, parentEdge int
		childIdx      int
		children      int
	}
	var edgeStack []Edge

	// neighbor returns the i-th entry of v's conflict row followed by its
	// stitch row, and false past the end.
	neighbor := func(v, i int) (int, bool) {
		conf := g.conf.row(v)
		if i < len(conf) {
			return int(conf[i]), true
		}
		if stit := g.stit.row(v); i-len(conf) < len(stit) {
			return int(stit[i-len(conf)]), true
		}
		return 0, false
	}

	popBlock := func(until Edge) []int {
		stamp := int32(len(blocks) + 1)
		var verts []int
		for len(edgeStack) > 0 {
			e := edgeStack[len(edgeStack)-1]
			edgeStack = edgeStack[:len(edgeStack)-1]
			for _, v := range [2]int{e.U, e.V} {
				if seen[v] != stamp {
					seen[v] = stamp
					verts = append(verts, v)
				}
			}
			if e == until {
				break
			}
		}
		sort.Ints(verts)
		return verts
	}

	for s := 0; s < g.n; s++ {
		if disc[s] != none {
			continue
		}
		if _, ok := neighbor(s, 0); !ok {
			disc[s] = timer
			timer++
			blocks = append(blocks, []int{s})
			continue
		}
		stack := []frame{{v: s, parentEdge: none}}
		disc[s] = timer
		low[s] = timer
		timer++
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			v := f.v
			if w, ok := neighbor(v, f.childIdx); ok {
				f.childIdx++
				if w == f.parentEdge {
					continue
				}
				if disc[w] == none {
					f.children++
					e := Edge{U: min(v, w), V: max(v, w)}
					edgeStack = append(edgeStack, e)
					disc[w] = timer
					low[w] = timer
					timer++
					stack = append(stack, frame{v: w, parentEdge: v})
				} else if disc[w] < disc[v] {
					e := Edge{U: min(v, w), V: max(v, w)}
					edgeStack = append(edgeStack, e)
					if disc[w] < low[v] {
						low[v] = disc[w]
					}
				}
			} else {
				stack = stack[:len(stack)-1]
				if len(stack) == 0 {
					if f.children >= 2 {
						isCut[v] = true
					}
					continue
				}
				p := stack[len(stack)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
				if low[v] >= disc[p] {
					// p is a cut vertex unless it is the DFS root, the
					// bottom frame (the root's rule is its child count).
					if len(stack) > 1 {
						isCut[p] = true
					}
					e := Edge{U: min(p, v), V: max(p, v)}
					blocks = append(blocks, popBlock(e))
				}
			}
		}
	}
	for v := 0; v < g.n; v++ {
		if isCut[v] {
			cuts = append(cuts, v)
		}
	}
	return blocks, cuts
}
