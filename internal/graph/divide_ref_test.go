package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// The division primitives before their allocation rewrite, kept as oracles:
// componentsReference is the per-graph DFS that Components was,
// peelReference the PeelOrder with a separate removal stack and
// removed/inQueue flags, and biconnectedReference the block DFS that
// materialized a merged conflict+stitch row per step and deduplicated each
// block through a map. The rewrites must return DeepEqual results.

func componentsReference(g *Graph) [][]int {
	comp := make([]int, g.n)
	for i := range comp {
		comp[i] = -1
	}
	var out [][]int
	for s := 0; s < g.n; s++ {
		if comp[s] != -1 {
			continue
		}
		id := len(out)
		comp[s] = id
		stack := []int{s}
		var members []int
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			members = append(members, u)
			for _, row := range [][]int32{g.conf.row(u), g.stit.row(u)} {
				for _, v := range row {
					if comp[v] == -1 {
						comp[v] = id
						stack = append(stack, int(v))
					}
				}
			}
		}
		sort.Ints(members)
		out = append(out, members)
	}
	return out
}

func peelReference(g *Graph, k, maxStitch int, active []bool) (stack []int, core []int) {
	deg := make([]int, g.n)
	sdeg := make([]int, g.n)
	removed := make([]bool, g.n)
	isActive := func(v int) bool { return active == nil || active[v] }
	queue := make([]int, 0, g.n)
	for v := 0; v < g.n; v++ {
		if !isActive(v) {
			removed[v] = true
			continue
		}
		for _, w := range g.conf.row(v) {
			if isActive(int(w)) {
				deg[v]++
			}
		}
		for _, w := range g.stit.row(v) {
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
		for _, w := range g.conf.row(v) {
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
		for _, w := range g.stit.row(v) {
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

func biconnectedReference(g *Graph) (blocks [][]int, cuts []int) {
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
		return append(append([]int32(nil), g.conf.row(v)...), g.stit.row(v)...)
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
		if len(neighbors(s)) == 0 {
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
					edgeStack = append(edgeStack, Edge{U: min(v, w), V: max(v, w)})
					disc[w] = timer
					low[w] = timer
					timer++
					stack = append(stack, frame{v: w, parentEdge: v})
				} else if disc[w] < disc[v] {
					edgeStack = append(edgeStack, Edge{U: min(v, w), V: max(v, w)})
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
					blocks = append(blocks, popBlock(Edge{U: min(p, v), V: max(p, v)}))
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

// TestDivisionPrimitivesMatchReference draws random graphs of all three
// edge kinds (a pair may be both a conflict and a stitch) and checks
// Components, ComponentCount, InducedComponents, PeelOrder (every vertex
// active) and BiconnectedComponents against the oracles above.
// InducedComponents is checked against the reference components of the
// copied subgraph, mapped back to g's ids.
func TestDivisionPrimitivesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(50)
		g, _ := randomGraph(rng, n, rng.Intn(2*n+1))
		if got, want := g.Components(), componentsReference(g); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Components %v, reference %v", trial, got, want)
		}

		var subset []int
		for v := 0; v < n; v++ {
			if rng.Intn(3) != 0 {
				subset = append(subset, v)
			}
		}
		mark := make([]int32, n)
		if got, want := g.ComponentCount(mark), len(componentsReference(g)); got != want {
			t.Fatalf("trial %d: ComponentCount %d, reference %d", trial, got, want)
		}
		if !reflect.DeepEqual(mark, make([]int32, n)) {
			t.Fatalf("trial %d: ComponentCount left mark %v", trial, mark)
		}
		sub := g.Subgraph(subset, nil)
		var want [][]int
		for _, comp := range componentsReference(sub) {
			ids := make([]int, len(comp))
			for i, v := range comp {
				ids[i] = subset[v]
			}
			want = append(want, ids)
		}
		if got := g.InducedComponents(subset, mark); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: InducedComponents(%v) %v, reference %v", trial, subset, got, want)
		}
		if !reflect.DeepEqual(mark, make([]int32, n)) {
			t.Fatalf("trial %d: InducedComponents left mark %v", trial, mark)
		}

		k, maxStitch := 2+rng.Intn(4), 1+rng.Intn(3)
		stack, core := g.PeelOrder(k, maxStitch)
		wantStack, wantCore := peelReference(g, k, maxStitch, nil)
		if len(stack) != len(wantStack) || (len(stack) > 0 && !reflect.DeepEqual(stack, wantStack)) ||
			!reflect.DeepEqual(core, wantCore) {
			t.Fatalf("trial %d: PeelOrder(%d, %d) = %v, %v; reference %v, %v", trial, k, maxStitch, stack, core, wantStack, wantCore)
		}

		blocks, cuts := g.BiconnectedComponents()
		wantBlocks, wantCuts := biconnectedReference(g)
		if !reflect.DeepEqual(blocks, wantBlocks) || !reflect.DeepEqual(cuts, wantCuts) {
			t.Fatalf("trial %d: BiconnectedComponents = %v, %v; reference %v, %v", trial, blocks, cuts, wantBlocks, wantCuts)
		}
	}
}
