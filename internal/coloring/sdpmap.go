package coloring

import (
	"context"
	"sort"

	"mpl/internal/graph"
	"mpl/internal/sdp"
)

// unionFind is a plain disjoint-set structure used for vertex merging.
type unionFind struct {
	parent []int
}

func newUnionFind(n int) *unionFind {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &unionFind{parent: p}
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) { u.parent[u.find(a)] = u.find(b) }

// pairScore is an off-diagonal SDP Gram entry.
type pairScore struct {
	u, v int
	x    float64
}

// sortedPairs lists all vertex pairs by descending x_ij. Only pairs above
// floor are returned (pairs near −1/(K−1) carry no merge signal).
func sortedPairs(sol *sdp.Solution, floor float64) []pairScore {
	n := len(sol.Vectors)
	var out []pairScore
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if x := sol.Pair(i, j); x > floor {
				out = append(out, pairScore{u: i, v: j, x: x})
			}
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].x > out[b].x })
	return out
}

// groupsOf converts a union-find into dense group IDs and member lists.
func groupsOf(uf *unionFind, n int) (groupOf []int, members [][]int) {
	groupOf = make([]int, n)
	id := map[int]int{}
	for v := 0; v < n; v++ {
		r := uf.find(v)
		g, ok := id[r]
		if !ok {
			g = len(members)
			id[r] = g
			members = append(members, nil)
		}
		groupOf[v] = g
		members[g] = append(members[g], v)
	}
	return groupOf, members
}

// conflictBetween reports whether any conflict edge joins the two groups
// (which would make merging them immediately pay a conflict).
func conflictBetween(g *graph.Graph, a, b []int) bool {
	for _, u := range a {
		for _, v := range b {
			if g.HasConflict(u, v) {
				return true
			}
		}
	}
	return false
}

// buildMerged collapses the graph under the grouping into a weighted merged
// graph (Algorithm 1 line 4).
func buildMerged(g *graph.Graph, groupOf []int, numGroups int) *Weighted {
	w := NewWeighted(numGroups)
	for _, e := range g.ConflictEdges() {
		gu, gv := groupOf[e.U], groupOf[e.V]
		if gu != gv {
			w.AddConflict(gu, gv, 1)
		}
	}
	for _, e := range g.StitchEdges() {
		gu, gv := groupOf[e.U], groupOf[e.V]
		if gu != gv {
			w.AddStitch(gu, gv, 1)
		}
	}
	return w
}

// SDPBacktrackContext implements Algorithm 1 (SDP + Backtrack): solve the
// relaxation, merge every pair with x_ij ≥ threshold into one vertex
// (skipping merges that would trap a conflict edge inside a group), then run
// exact branch-and-bound backtracking on the merged graph. ctx cancels the
// exact search phase cooperatively (the merge phase is linear-time and runs
// to completion).
func SDPBacktrackContext(ctx context.Context, g *graph.Graph, sol *sdp.Solution, k int, alpha, threshold float64, nodeLimit int64) ([]int, bool) {
	n := g.N()
	if n == 0 {
		return []int{}, true
	}
	uf := newUnionFind(n)
	for _, p := range sortedPairs(sol, threshold) {
		if p.x < threshold {
			break
		}
		ra, rb := uf.find(p.u), uf.find(p.v)
		if ra == rb {
			continue
		}
		// Materialize current members lazily: small components keep this cheap.
		groupOf, members := groupsOf(uf, n)
		if conflictBetween(g, members[groupOf[p.u]], members[groupOf[p.v]]) {
			continue
		}
		uf.union(p.u, p.v)
	}
	groupOf, members := groupsOf(uf, n)
	merged := buildMerged(g, groupOf, len(members))
	res := merged.BacktrackContext(ctx, k, alpha, nodeLimit)
	colors := make([]int, n)
	for v := 0; v < n; v++ {
		colors[v] = res.Colors[groupOf[v]]
	}
	return colors, res.Proven
}

// SDPGreedy implements the greedy mapping of Yu et al. (ICCAD'11) adapted to
// K masks: agglomeratively union the vertex pair with the largest x_ij
// whose union creates no internal conflict, until at most K groups remain
// (or no mergeable pair is left); groups then become colors. If more than K
// groups survive, the extra groups are colored greedily against the K
// anchor groups.
func SDPGreedy(g *graph.Graph, sol *sdp.Solution, k int, alpha float64) []int {
	n := g.N()
	if n == 0 {
		return []int{}
	}
	uf := newUnionFind(n)
	numGroups := n
	for _, p := range sortedPairs(sol, -0.5) {
		if numGroups <= k {
			break
		}
		if uf.find(p.u) == uf.find(p.v) {
			continue
		}
		groupOf, members := groupsOf(uf, n)
		if conflictBetween(g, members[groupOf[p.u]], members[groupOf[p.v]]) {
			continue
		}
		uf.union(p.u, p.v)
		numGroups--
	}
	groupOf, members := groupsOf(uf, n)

	// Assign colors group by group, biggest first, greedily minimizing the
	// weighted cost against already-colored groups.
	merged := buildMerged(g, groupOf, len(members))
	order := make([]int, len(members))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(members[order[a]]) > len(members[order[b]])
	})
	groupColor := merged.greedyColors(order, k, alpha)

	colors := make([]int, n)
	for v := 0; v < n; v++ {
		colors[v] = groupColor[groupOf[v]]
	}
	return colors
}
