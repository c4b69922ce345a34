// Package ghtree builds Gomory–Hu cut trees (Gomory & Hu 1961, the paper's
// reference [20]) using the classical contraction algorithm with Dinic's
// max-flow as the cut engine (reference [22]). The resulting weighted tree
// encodes all-pairs minimum cuts — for vertices u, v the minimum cut equals
// the smallest edge weight on the tree path between them — and, being a true
// cut tree, each tree edge's weight equals the capacity of the bipartition
// obtained by removing that edge.
//
// Section 4.1 of the DAC'14 paper uses the tree for (K−1)-cut removal:
// every tree edge with weight < K separates the decomposition graph into
// sides joined by fewer than K conflict edges, so the sides can be colored
// independently and reconnected by color rotation without new conflicts
// (Lemma 1 / Theorem 2).
//
// The paper cites Gusfield's simplification [21]; we implement the
// contraction form instead because the division step depends on the strict
// cut-tree property, which Gusfield's no-contraction variant does not always
// deliver for the tree bipartitions (it guarantees flow equivalence). The
// observable behaviour — n−1 max-flows, all-pairs cut values — is identical.
package ghtree

import (
	"context"
	"sort"

	"mpl/internal/graph"
	"mpl/internal/maxflow"
	"mpl/internal/pipeline"
)

// WeightedEdge is an undirected edge with capacity W.
type WeightedEdge struct {
	U, V int
	W    int64
}

// Tree is a Gomory–Hu cut tree over vertices [0, n). Parent[0] is -1; for
// v > 0, the tree edge {v, Parent[v]} has capacity Weight[v].
type Tree struct {
	Parent []int
	Weight []int64
}

// N returns the vertex count.
func (t *Tree) N() int { return len(t.Parent) }

// node is a super-node of the intermediate tree: a set of original vertices.
type node struct {
	verts []int
	// adjacency to other nodes: parallel slices of neighbor index and weight
	nbr []int
	w   []int64
}

// buildCtx constructs the Gomory–Hu cut tree of the weighted undirected
// graph given as an edge list over n vertices. Vertices in different
// connected components are joined by weight-0 tree edges, consistent with
// their minimum cut being 0. Parallel edges are allowed and their
// capacities add. It returns nil once done is closed.
func buildCtx(done <-chan struct{}, n int, edges []WeightedEdge, sc *pipeline.Scratch) *Tree {
	t := &Tree{Parent: make([]int, n), Weight: make([]int64, n)}
	if n == 0 {
		return t
	}
	t.Parent[0] = -1
	if n == 1 {
		return t
	}

	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	nodes := []*node{{verts: all}}

	addTreeEdge := func(a, b int, w int64) {
		nodes[a].nbr = append(nodes[a].nbr, b)
		nodes[a].w = append(nodes[a].w, w)
		nodes[b].nbr = append(nodes[b].nbr, a)
		nodes[b].w = append(nodes[b].w, w)
	}
	removeTreeEdge := func(a, b int) {
		drop := func(x, y int) {
			nx := nodes[x]
			for i, nb := range nx.nbr {
				if nb == y {
					nx.nbr = append(nx.nbr[:i], nx.nbr[i+1:]...)
					nx.w = append(nx.w[:i], nx.w[i+1:]...)
					return
				}
			}
		}
		drop(a, b)
		drop(b, a)
	}

	// Reusable per-contraction buffers, carved once per build: the vertex
	// contraction map and the filtered contracted edge list the max-flow
	// network is built from (capacity is the full edge count, so the
	// per-contraction appends below never reallocate).
	vmap := sc.Int32s(n)
	cu := sc.Int32s(len(edges))[:0]
	cv := sc.Int32s(len(edges))[:0]
	cw := sc.Int64s(len(edges))[:0]
	defer func() {
		sc.PutInt32s(vmap)
		sc.PutInt32s(cu[:0])
		sc.PutInt32s(cv[:0])
		sc.PutInt64s(cw[:0])
	}()

	// Work queue of node indices that may still hold multiple vertices.
	queue := []int{0}
	for len(queue) > 0 {
		if done != nil {
			select {
			case <-done:
				return nil
			default:
			}
		}
		xi := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		x := nodes[xi]
		if len(x.verts) < 2 {
			continue
		}
		s, tt := x.verts[0], x.verts[1]

		// Contract each subtree hanging off x into a single vertex.
		// vmap[v] = contracted-graph vertex for original vertex v.
		for i := range vmap {
			vmap[i] = -1
		}
		for i, v := range x.verts {
			vmap[v] = int32(i)
		}
		next := len(x.verts)
		// subtreeOf[neighborNode] = contracted id for that whole subtree.
		subtreeID := make(map[int]int)
		for _, root := range x.nbr {
			if _, done := subtreeID[root]; done {
				continue
			}
			id := next
			next++
			subtreeID[root] = id
			// BFS the intermediate tree from root avoiding x.
			stack := []int{root}
			seen := map[int]bool{xi: true, root: true}
			for len(stack) > 0 {
				ci := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, v := range nodes[ci].verts {
					vmap[v] = int32(id)
				}
				for _, nb := range nodes[ci].nbr {
					if !seen[nb] {
						seen[nb] = true
						stack = append(stack, nb)
					}
				}
			}
		}

		cu, cv, cw = cu[:0], cv[:0], cw[:0]
		for _, e := range edges {
			mu, mv := vmap[e.U], vmap[e.V]
			if mu != mv && mu >= 0 && mv >= 0 {
				cu = append(cu, mu)
				cv = append(cv, mv)
				cw = append(cw, e.W)
			}
		}
		nw := maxflow.BuildUndirected(next, cu, cv, cw, sc)
		f := nw.MaxFlow(int(vmap[s]), int(vmap[tt]))
		side := nw.MinCutSide(int(vmap[s]))
		nw.ReleaseScratch(sc)

		// Split x into xs (s side) and xt.
		var vs, vt []int
		for _, v := range x.verts {
			if side[vmap[v]] {
				vs = append(vs, v)
			} else {
				vt = append(vt, v)
			}
		}
		x.verts = vs
		ti := len(nodes)
		nodes = append(nodes, &node{verts: vt})
		// Reattach old neighbors of x by which side their subtree fell on.
		oldNbr := append([]int(nil), x.nbr...)
		oldW := append([]int64(nil), x.w...)
		for i, nb := range oldNbr {
			if !side[subtreeID[nb]] {
				removeTreeEdge(xi, nb)
				addTreeEdge(ti, nb, oldW[i])
			}
		}
		addTreeEdge(xi, ti, f)

		if len(nodes[xi].verts) > 1 {
			queue = append(queue, xi)
		}
		if len(nodes[ti].verts) > 1 {
			queue = append(queue, ti)
		}
	}

	// Every node now holds exactly one vertex; root the node tree at the
	// node containing vertex 0 and translate to Parent/Weight arrays.
	nodeOf := make([]int, n)
	for i, nd := range nodes {
		nodeOf[nd.verts[0]] = i
	}
	rooti := nodeOf[0]
	visited := make([]bool, len(nodes))
	visited[rooti] = true
	t.Parent[0] = -1
	stack := []int{rooti}
	for len(stack) > 0 {
		ci := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		cv := nodes[ci].verts[0]
		for i, nb := range nodes[ci].nbr {
			if visited[nb] {
				continue
			}
			visited[nb] = true
			nv := nodes[nb].verts[0]
			t.Parent[nv] = cv
			t.Weight[nv] = nodes[ci].w[i]
			stack = append(stack, nb)
		}
	}
	return t
}

// BuildFromConflictGraphScratch builds the tree over the conflict edges of a
// decomposition graph, each with unit capacity — the configuration used by
// the paper's 3-cut (general (K−1)-cut) detection. ctx is polled before
// each of the n−1 max-flow computations (the dominant cost on large
// blocks), and the function returns nil when cancelled before the tree is
// complete: a partial contraction tree is not a cut tree, so no partial
// result exists. The contraction maps and max-flow networks of those flow
// computations are carved from the worker's scratch arena (nil-safe) — the
// division pipeline's Partition stage calls this once per GH-divided block,
// and without pooling those throwaway networks dominate the whole solve's
// allocation profile. A nil arena allocates fresh memory; the tree is
// identical either way.
func BuildFromConflictGraphScratch(ctx context.Context, g *graph.Graph, sc *pipeline.Scratch) *Tree {
	return buildCtx(ctx.Done(), g.N(), conflictEdges(g), sc)
}

func conflictEdges(g *graph.Graph) []WeightedEdge {
	edges := g.ConflictEdges()
	wedges := make([]WeightedEdge, len(edges))
	for i, e := range edges {
		wedges[i] = WeightedEdge{U: e.U, V: e.V, W: 1}
	}
	return wedges
}

// MinCut returns the minimum cut value between u and v: the smallest edge
// weight on the tree path from u to v.
func (t *Tree) MinCut(u, v int) int64 {
	if u == v {
		panic("ghtree: MinCut of a vertex with itself")
	}
	du, dv := t.depth(u), t.depth(v)
	best := int64(1)<<62 - 1
	for du > dv {
		if t.Weight[u] < best {
			best = t.Weight[u]
		}
		u = t.Parent[u]
		du--
	}
	for dv > du {
		if t.Weight[v] < best {
			best = t.Weight[v]
		}
		v = t.Parent[v]
		dv--
	}
	for u != v {
		if t.Weight[u] < best {
			best = t.Weight[u]
		}
		if t.Weight[v] < best {
			best = t.Weight[v]
		}
		u = t.Parent[u]
		v = t.Parent[v]
	}
	return best
}

func (t *Tree) depth(x int) int {
	d := 0
	for t.Parent[x] >= 0 {
		x = t.Parent[x]
		d++
	}
	return d
}

// CutEdge identifies a removed tree edge by its child endpoint: the edge
// {Child, Parent[Child]} with weight Weight[Child].
type CutEdge struct {
	Child  int
	Weight int64
}

// CutEdgesBelowWeight returns the tree edges with weight < minWeight,
// ordered by decreasing depth of the child endpoint. Processing rotations in
// this order reattaches leaf-most bipartitions first, which the division
// pipeline relies on.
func (t *Tree) CutEdgesBelowWeight(minWeight int64) []CutEdge {
	type de struct {
		CutEdge
		depth int
	}
	var tmp []de
	for v := 0; v < t.N(); v++ {
		if t.Parent[v] >= 0 && t.Weight[v] < minWeight {
			tmp = append(tmp, de{CutEdge{Child: v, Weight: t.Weight[v]}, t.depth(v)})
		}
	}
	sort.SliceStable(tmp, func(i, j int) bool { return tmp[i].depth > tmp[j].depth })
	out := make([]CutEdge, len(tmp))
	for i, e := range tmp {
		out[i] = e.CutEdge
	}
	return out
}

// SubtreeMask returns a membership mask of the vertices in the subtree
// rooted at child (the child side of the tree edge {child, Parent[child]}).
func (t *Tree) SubtreeMask(child int) []bool {
	n := t.N()
	children := make([][]int, n)
	for v := 0; v < n; v++ {
		if p := t.Parent[v]; p >= 0 {
			children[p] = append(children[p], v)
		}
	}
	mask := make([]bool, n)
	stack := []int{child}
	mask[child] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range children[v] {
			if !mask[c] {
				mask[c] = true
				stack = append(stack, c)
			}
		}
	}
	return mask
}

// ComponentsBelowWeight removes every tree edge with weight < minWeight and
// returns the resulting vertex components (sorted, in first-vertex order).
// With minWeight = K this realizes the paper's (K−1)-cut division: each
// returned component can be colored independently (Theorem 2).
func (t *Tree) ComponentsBelowWeight(minWeight int64) [][]int {
	n := t.N()
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for v := 0; v < n; v++ {
		if t.Parent[v] >= 0 && t.Weight[v] >= minWeight {
			a, b := find(v), find(t.Parent[v])
			if a != b {
				parent[a] = b
			}
		}
	}
	groups := map[int][]int{}
	var order []int
	for v := 0; v < n; v++ {
		r := find(v)
		if _, ok := groups[r]; !ok {
			order = append(order, r)
		}
		groups[r] = append(groups[r], v)
	}
	out := make([][]int, 0, len(order))
	for _, r := range order {
		members := groups[r]
		sort.Ints(members)
		out = append(out, members)
	}
	return out
}
