// Package graph implements the decomposition graph of the DAC'14 paper
// (Definition 1): an undirected graph with one vertex per polygonal feature
// fragment and two edge sets, conflict edges (CE, features within the
// minimum coloring distance) and stitch edges (SE, stitch candidates inside
// one feature). A third edge set records the paper's color-friendly pairs
// (Definition 2, distance in (mins, mins+hp)), which the linear color
// assignment consults as soft same-color hints.
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
// Bulk construction goes through Builder (csr.go), which lays each edge
// kind out in one contiguous int32 arena and points these adjacency headers
// into it — the scratch build and ApplyEdits' dirty-region rebuild both do.
// The Add* methods below remain the mutable shim on top: on an arena-built
// graph an insert reallocates just the affected row (the views are
// full-capacity subslices), leaving the arena and every other row
// untouched. Only tests call them; production graphs are built by Builder
// or copied out of one by Subgraph.
type Graph struct {
	n       int
	conf    [][]int32
	stit    [][]int32
	friend  [][]int32
	nConf   int
	nStit   int
	nFriend int
}

// New returns a graph with n isolated vertices.
func New(n int) *Graph {
	if n < 0 || n > MaxVertices {
		panic(fmt.Sprintf("graph: vertex count %d outside [0, %d]", n, MaxVertices))
	}
	return &Graph{
		n:      n,
		conf:   make([][]int32, n),
		stit:   make([][]int32, n),
		friend: make([][]int32, n),
	}
}

// N returns the vertex count.
func (g *Graph) N() int { return g.n }

// ConflictEdgeCount returns |CE|.
func (g *Graph) ConflictEdgeCount() int { return g.nConf }

// StitchEdgeCount returns |SE|.
func (g *Graph) StitchEdgeCount() int { return g.nStit }

// FriendEdgeCount returns the number of color-friendly pairs.
func (g *Graph) FriendEdgeCount() int { return g.nFriend }

// AddVertex appends an isolated vertex and returns its index.
func (g *Graph) AddVertex() int {
	if g.n >= MaxVertices {
		panic(fmt.Sprintf("graph: vertex count would exceed %d", MaxVertices))
	}
	g.conf = append(g.conf, nil)
	g.stit = append(g.stit, nil)
	g.friend = append(g.friend, nil)
	g.n++
	return g.n - 1
}

// sortedInsert puts v into ascending adjacency adj, reporting whether it was
// absent. Membership is a binary search; the shift is O(deg) but runs only
// on actual inserts, so repeated duplicate insertions on a hub vertex cost
// O(log deg) each instead of the old linear contains scan.
func sortedInsert(adj []int32, v int32) ([]int32, bool) {
	i, found := slices.BinarySearch(adj, v)
	if found {
		return adj, false
	}
	return slices.Insert(adj, i, v), true
}

func (g *Graph) check(u, v int) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n))
	}
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at %d", u))
	}
}

// AddConflict inserts an undirected conflict edge; duplicate insertions are
// ignored. It reports whether the edge was new.
func (g *Graph) AddConflict(u, v int) bool {
	g.check(u, v)
	row, fresh := sortedInsert(g.conf[u], int32(v))
	if !fresh {
		return false
	}
	g.conf[u] = row
	g.conf[v], _ = sortedInsert(g.conf[v], int32(u))
	g.nConf++
	return true
}

// AddStitch inserts an undirected stitch edge; duplicates are ignored.
func (g *Graph) AddStitch(u, v int) bool {
	g.check(u, v)
	row, fresh := sortedInsert(g.stit[u], int32(v))
	if !fresh {
		return false
	}
	g.stit[u] = row
	g.stit[v], _ = sortedInsert(g.stit[v], int32(u))
	g.nStit++
	return true
}

// AddFriend inserts an undirected color-friendly edge; duplicates ignored.
func (g *Graph) AddFriend(u, v int) bool {
	g.check(u, v)
	row, fresh := sortedInsert(g.friend[u], int32(v))
	if !fresh {
		return false
	}
	g.friend[u] = row
	g.friend[v], _ = sortedInsert(g.friend[v], int32(u))
	g.nFriend++
	return true
}

// HasConflict reports whether {u,v} is a conflict edge.
func (g *Graph) HasConflict(u, v int) bool {
	if u < 0 || v < 0 || u >= g.n || v >= g.n || u == v {
		return false
	}
	_, found := slices.BinarySearch(g.conf[u], int32(v))
	return found
}

// HasStitch reports whether {u,v} is a stitch edge.
func (g *Graph) HasStitch(u, v int) bool {
	if u < 0 || v < 0 || u >= g.n || v >= g.n || u == v {
		return false
	}
	_, found := slices.BinarySearch(g.stit[u], int32(v))
	return found
}

// ConflictDegree returns dconf(v), the number of conflict edges at v.
func (g *Graph) ConflictDegree(v int) int { return len(g.conf[v]) }

// StitchDegree returns dstit(v), the number of stitch edges at v.
func (g *Graph) StitchDegree(v int) int { return len(g.stit[v]) }

// ConflictNeighbors returns the conflict adjacency of v. The slice is owned
// by the graph; callers must not modify it.
func (g *Graph) ConflictNeighbors(v int) []int32 { return g.conf[v] }

// StitchNeighbors returns the stitch adjacency of v (read-only).
func (g *Graph) StitchNeighbors(v int) []int32 { return g.stit[v] }

// FriendNeighbors returns the color-friendly adjacency of v (read-only).
func (g *Graph) FriendNeighbors(v int) []int32 { return g.friend[v] }

// Edge is an undirected vertex pair with U < V.
type Edge struct {
	U, V int
}

// ConflictEdges returns all conflict edges with U < V, sorted.
func (g *Graph) ConflictEdges() []Edge { return collectEdges(g.conf, g.nConf) }

// StitchEdges returns all stitch edges with U < V, sorted.
func (g *Graph) StitchEdges() []Edge { return collectEdges(g.stit, g.nStit) }

// collectEdges lists the m edges of adj. Rows ascend and are visited in
// vertex order, so the list comes out sorted by (U, V).
func collectEdges(adj [][]int32, m int) []Edge {
	out := make([]Edge, 0, m)
	for u := range adj {
		for _, v := range adj[u] {
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
	comp := make([]int, g.n)
	for i := range comp {
		comp[i] = -1
	}
	var out [][]int
	stack := make([]int, 0, 64)
	for s := 0; s < g.n; s++ {
		if comp[s] != -1 {
			continue
		}
		id := len(out)
		comp[s] = id
		stack = append(stack[:0], s)
		var members []int
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			members = append(members, u)
			for _, v := range g.conf[u] {
				if comp[v] == -1 {
					comp[v] = id
					stack = append(stack, int(v))
				}
			}
			for _, v := range g.stit[u] {
				if comp[v] == -1 {
					comp[v] = id
					stack = append(stack, int(v))
				}
			}
		}
		sort.Ints(members)
		out = append(out, members)
	}
	return out
}

// Subgraph extracts the induced subgraph over the given vertices, with
// vertex i of the result standing for vertices[i]. It returns the new graph
// and the mapping from new indices to original vertex IDs (the input slice,
// copied). Edges of every kind are preserved when both endpoints are inside
// the subset.
//
// The result is a filtered CSR copy: each member's adjacency row is copied,
// neighbors outside the subset dropped and the rest relabeled, into one
// arena per edge kind. Membership is looked up in index, a caller-leased
// table that must be all zero and at least g.N() long: Subgraph stamps
// index[vertices[i]] = i+1 and re-zeroes exactly those entries before it
// returns (or panics), so a caller extracting many pieces leases one table
// and never clears it. A nil index allocates one. Relabeling preserves
// order when vertices ascends, so the copied rows are already sorted; any
// other order sorts each row.
func (g *Graph) Subgraph(vertices []int, index []int32) (*Graph, []int) {
	if index == nil {
		index = make([]int32, g.n)
	} else if len(index) < g.n {
		panic(fmt.Sprintf("graph: subgraph index has %d entries, graph has %d vertices", len(index), g.n))
	}
	orig := make([]int, len(vertices))
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
		orig[i] = v
		ascending = ascending && (i == 0 || vertices[i-1] < v)
	}
	sub := &Graph{n: len(vertices)}
	sub.conf, sub.nConf = filterRows(g.conf, vertices, index, ascending)
	sub.stit, sub.nStit = filterRows(g.stit, vertices, index, ascending)
	sub.friend, sub.nFriend = filterRows(g.friend, vertices, index, ascending)
	clearIndex(index, vertices)
	return sub, orig
}

// filterRows copies one edge kind's rows of the stamped members into one
// arena, keeping only member neighbors under their new labels, and returns
// the row views plus the number of undirected edges kept.
func filterRows(adj [][]int32, vertices []int, index []int32, ascending bool) ([][]int32, int) {
	rows := make([][]int32, len(vertices))
	size := 0
	for _, v := range vertices {
		size += len(adj[v])
	}
	if size == 0 {
		return rows, 0
	}
	arena := make([]int32, 0, size)
	for i, v := range vertices {
		start := len(arena)
		for _, w := range adj[v] {
			if j := index[w]; j != 0 {
				arena = append(arena, j-1)
			}
		}
		if len(arena) == start {
			continue // isolated in the subgraph: nil row, as Build leaves it
		}
		row := arena[start:len(arena):len(arena)]
		if !ascending {
			slices.Sort(row)
		}
		rows[i] = row
	}
	return rows, len(arena) / 2
}

// clearIndex re-zeroes the index entries Subgraph stamped for vertices.
func clearIndex(index []int32, vertices []int) {
	for _, v := range vertices {
		index[v] = 0
	}
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		n:       g.n,
		conf:    make([][]int32, g.n),
		stit:    make([][]int32, g.n),
		friend:  make([][]int32, g.n),
		nConf:   g.nConf,
		nStit:   g.nStit,
		nFriend: g.nFriend,
	}
	for i := 0; i < g.n; i++ {
		c.conf[i] = append([]int32(nil), g.conf[i]...)
		c.stit[i] = append([]int32(nil), g.stit[i]...)
		c.friend[i] = append([]int32(nil), g.friend[i]...)
	}
	return c
}

// PeelOrder computes the iterative low-degree vertex removal of Algorithm 2
// (stage 1) and the division pipeline: repeatedly remove a vertex whose
// remaining conflict degree is < k and stitch degree is < maxStitch,
// pushing it onto a stack. It returns the removal stack (in removal order)
// and the sorted list of remaining "core" vertices. The graph itself is not
// modified; removal is simulated with degree counters.
//
// When a removed vertex is later popped and colored, one of the k colors is
// always conflict-free because fewer than k conflict neighbors remain — the
// paper's safety argument.
func (g *Graph) PeelOrder(k, maxStitch int, active []bool) (stack []int, core []int) {
	deg := make([]int, g.n)
	sdeg := make([]int, g.n)
	removed := make([]bool, g.n)
	isActive := func(v int) bool { return active == nil || active[v] }
	queue := make([]int, 0, g.n)
	for v := 0; v < g.n; v++ {
		if !isActive(v) {
			removed[v] = true // outside the working set; never peeled or core
			continue
		}
		for _, w := range g.conf[v] {
			if isActive(int(w)) {
				deg[v]++
			}
		}
		for _, w := range g.stit[v] {
			if isActive(int(w)) {
				sdeg[v]++
			}
		}
		if deg[v] < k && sdeg[v] < maxStitch {
			queue = append(queue, v)
		}
	}
	inQueue := make([]bool, g.n)
	for _, v := range queue {
		inQueue[v] = true
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if removed[v] {
			continue
		}
		removed[v] = true
		stack = append(stack, v)
		for _, w := range g.conf[v] {
			wi := int(w)
			if removed[wi] {
				continue
			}
			deg[wi]--
			if deg[wi] < k && sdeg[wi] < maxStitch && !inQueue[wi] {
				inQueue[wi] = true
				queue = append(queue, wi)
			}
		}
		for _, w := range g.stit[v] {
			wi := int(w)
			if removed[wi] {
				continue
			}
			sdeg[wi]--
			if deg[wi] < k && sdeg[wi] < maxStitch && !inQueue[wi] {
				inQueue[wi] = true
				queue = append(queue, wi)
			}
		}
	}
	for v := 0; v < g.n; v++ {
		if isActive(v) && !removed[v] {
			core = append(core, v)
		}
	}
	return stack, core
}

// BiconnectedComponents computes the 2-vertex-connected components of the
// conflict graph (stitch edges are treated as binding too, since a stitch
// couples the coloring of its endpoints). It returns one vertex set per
// block and the articulation (cut) vertices. Isolated vertices form
// singleton blocks.
func (g *Graph) BiconnectedComponents() (blocks [][]int, cuts []int) {
	const none = -1
	disc := make([]int, g.n)
	low := make([]int, g.n)
	parent := make([]int, g.n)
	isCut := make([]bool, g.n)
	for i := range disc {
		disc[i] = none
		parent[i] = none
	}
	timer := 0

	type frame struct {
		v, parentEdge int
		childIdx      int
		children      int
	}
	var edgeStack []Edge

	neighbors := func(v int) []int32 {
		// Combined conflict+stitch adjacency, materialized lazily per call.
		if len(g.stit[v]) == 0 {
			return g.conf[v]
		}
		out := make([]int32, 0, len(g.conf[v])+len(g.stit[v]))
		out = append(out, g.conf[v]...)
		out = append(out, g.stit[v]...)
		return out
	}

	popBlock := func(until Edge) []int {
		seen := map[int]bool{}
		var verts []int
		for len(edgeStack) > 0 {
			e := edgeStack[len(edgeStack)-1]
			edgeStack = edgeStack[:len(edgeStack)-1]
			for _, v := range []int{e.U, e.V} {
				if !seen[v] {
					seen[v] = true
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
		adj := neighbors(s)
		if len(adj) == 0 {
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
			vAdj := neighbors(v)
			if f.childIdx < len(vAdj) {
				w := int(vAdj[f.childIdx])
				f.childIdx++
				if w == f.parentEdge {
					continue
				}
				if disc[w] == none {
					parent[w] = v
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
					if parent[p] != none {
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
