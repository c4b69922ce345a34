package ghtree

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mpl/internal/graph"
	"mpl/internal/maxflow"
	"mpl/internal/pipeline"
)

// build is the cut tree of an edge list, without cancellation or arena.
func build(n int, edges []WeightedEdge) *Tree { return buildCtx(nil, n, edges, nil) }

// fromConflicts is the cut tree of g's unit-capacity conflict edges.
func fromConflicts(g *graph.Graph) *Tree {
	return BuildFromConflictGraphScratch(context.Background(), g, nil)
}

// maxFlow is a fresh u–v max flow over the undirected edges.
func maxFlow(n int, edges []WeightedEdge, u, v int) int64 {
	us := make([]int32, len(edges))
	vs := make([]int32, len(edges))
	ws := make([]int64, len(edges))
	for i, e := range edges {
		us[i], vs[i], ws[i] = int32(e.U), int32(e.V), e.W
	}
	return maxflow.BuildUndirected(n, us, vs, ws, nil).MaxFlow(u, v)
}

func TestFig6GHTree(t *testing.T) {
	// Fig. 6(a): decomposition graph on vertices a..e (0..4).
	// a-b-c form a triangle-ish dense left part, d, e hang off c.
	// We reproduce the figure's topology: a-b, a-c, b-c, b-d, c-d, d-e,
	// and an extra a-b parallel strengthening is not possible with unit
	// edges; the figure's published GH-tree weights are {a-b:4?, ...}.
	// Rather than chase the exact drawing, we verify the defining GH-tree
	// property on this graph: every tree-path minimum equals the true
	// s-t min cut.
	b := graph.NewBuilder(5)
	edges := [][2]int{{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}, {3, 4}}
	for _, e := range edges {
		b.AddConflict(e[0], e[1])
	}
	g := b.Build(nil)
	tr := fromConflicts(g)
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			var wedges []WeightedEdge
			for _, e := range edges {
				wedges = append(wedges, WeightedEdge{U: e[0], V: e[1], W: 1})
			}
			want := maxFlow(5, wedges, u, v)
			if got := tr.MinCut(u, v); got != want {
				t.Errorf("MinCut(%d,%d) = %d, want %d", u, v, got, want)
			}
		}
	}
	// Degree-1 vertex e: its min cut to anything is 1 < 4, so 3-cut
	// removal must split it off.
	comps := tr.ComponentsBelowWeight(4)
	if len(comps) < 2 {
		t.Fatalf("expected a split, got %v", comps)
	}
}

func TestSingleAndEmpty(t *testing.T) {
	tr := build(0, nil)
	if tr.N() != 0 {
		t.Fatalf("empty tree N = %d", tr.N())
	}
	tr = build(1, nil)
	if tr.N() != 1 || tr.Parent[0] != -1 {
		t.Fatalf("singleton tree = %+v", tr)
	}
	comps := tr.ComponentsBelowWeight(4)
	if !reflect.DeepEqual(comps, [][]int{{0}}) {
		t.Fatalf("singleton components = %v", comps)
	}
}

func TestDisconnectedGraph(t *testing.T) {
	tr := build(4, []WeightedEdge{{U: 0, V: 1, W: 5}, {U: 2, V: 3, W: 7}})
	if got := tr.MinCut(0, 1); got != 5 {
		t.Fatalf("MinCut(0,1) = %d", got)
	}
	if got := tr.MinCut(0, 2); got != 0 {
		t.Fatalf("MinCut(0,2) = %d, want 0 (disconnected)", got)
	}
	comps := tr.ComponentsBelowWeight(1)
	if len(comps) != 2 {
		t.Fatalf("components = %v", comps)
	}
}

func TestMinCutSelfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MinCut(v,v) did not panic")
		}
	}()
	build(2, []WeightedEdge{{U: 0, V: 1, W: 1}}).MinCut(1, 1)
}

func TestComponentsBelowWeightK5(t *testing.T) {
	// K5 has all-pairs min cut 4, so with minWeight 4 it must stay whole,
	// and with minWeight 5 it must shatter.
	b := graph.NewBuilder(5)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			b.AddConflict(i, j)
		}
	}
	g := b.Build(nil)
	tr := fromConflicts(g)
	whole := tr.ComponentsBelowWeight(4)
	if len(whole) != 1 || len(whole[0]) != 5 {
		t.Fatalf("K5 at minWeight 4 = %v", whole)
	}
	shattered := tr.ComponentsBelowWeight(5)
	if len(shattered) != 5 {
		t.Fatalf("K5 at minWeight 5 = %v", shattered)
	}
}

func TestFig5ThreeCutSplits(t *testing.T) {
	// Fig. 5(a): two triangles {a,b,c} and {d,e,f} joined by the 3-cut
	// (a-d, b-e, c-f). All cross-pairs have min cut 3 < 4 → two components.
	b := graph.NewBuilder(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {0, 3}, {1, 4}, {2, 5}} {
		b.AddConflict(e[0], e[1])
	}
	g := b.Build(nil)
	tr := fromConflicts(g)
	if got := tr.MinCut(0, 3); got != 3 {
		t.Fatalf("cross min cut = %d, want 3", got)
	}
	// In the prism every vertex has degree 3, so *all* pairs have min cut
	// 3 < 4; (K−1)-cut division therefore shatters the graph completely.
	// (The figure highlights one 3-cut; Lemma 2 applies to every pair.)
	comps := tr.ComponentsBelowWeight(4)
	if len(comps) != 6 {
		t.Fatalf("components = %v, want 6 singletons", comps)
	}
	// Each removed tree edge must be a genuine ≤3 cut of the prism.
	for _, ce := range tr.CutEdgesBelowWeight(4) {
		mask := tr.SubtreeMask(ce.Child)
		crossing := 0
		for _, e := range g.ConflictEdges() {
			if mask[e.U] != mask[e.V] {
				crossing++
			}
		}
		if int64(crossing) != ce.Weight {
			t.Fatalf("tree edge at child %d: weight %d but %d crossing edges",
				ce.Child, ce.Weight, crossing)
		}
	}
}

// TestAllPairsMinCutProperty: on random graphs, the tree-path minimum must
// equal a fresh max-flow for every pair (the defining Gomory–Hu property).
func TestAllPairsMinCutProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(9)
		var edges []WeightedEdge
		for i := 0; i < n*2; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			edges = append(edges, WeightedEdge{U: u, V: v, W: int64(1 + rng.Intn(4))})
		}
		tr := build(n, edges)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if tr.MinCut(u, v) != maxFlow(n, edges, u, v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestCutTreeProperty: each tree edge's weight equals the true capacity of
// the bipartition induced by removing that edge — the stronger cut-tree
// property the (K−1)-cut division relies on (crossing edges between two
// divided components really number < K).
func TestCutTreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		var edges []WeightedEdge
		for i := 0; i < n*2; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			edges = append(edges, WeightedEdge{U: u, V: v, W: int64(1 + rng.Intn(3))})
		}
		tr := build(n, edges)
		for v := 1; v < n; v++ {
			// Bipartition: subtree under v vs rest.
			inSub := make([]bool, n)
			for x := 0; x < n; x++ {
				y := x
				for y >= 0 && y != v {
					y = tr.Parent[y]
				}
				inSub[x] = y == v
			}
			var cap int64
			for _, e := range edges {
				if inSub[e.U] != inSub[e.V] {
					cap += e.W
				}
			}
			if cap != tr.Weight[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestComponentsPartition(t *testing.T) {
	// Property: ComponentsBelowWeight always yields a partition of [0,n).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		var edges []WeightedEdge
		for i := 0; i < n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				edges = append(edges, WeightedEdge{U: u, V: v, W: int64(1 + rng.Intn(5))})
			}
		}
		tr := build(n, edges)
		for _, mw := range []int64{1, 2, 4, 100} {
			seen := make([]bool, n)
			for _, c := range tr.ComponentsBelowWeight(mw) {
				for _, v := range c {
					if seen[v] {
						return false
					}
					seen[v] = true
				}
			}
			for _, s := range seen {
				if !s {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildScratchIdenticalTree(t *testing.T) {
	// The scratch-carved build must emit the byte-identical tree — the
	// division pipeline's GH cuts (and therefore the final coloring)
	// depend on it.
	rng := rand.New(rand.NewSource(23))
	sc := pipeline.NewScratchPool().Get()
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(14)
		b := graph.NewBuilder(n)
		for i := 0; i < n*2; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddConflict(u, v)
			}
		}
		g := b.Build(nil)
		ref := BuildFromConflictGraphScratch(context.Background(), g, nil)
		got := BuildFromConflictGraphScratch(context.Background(), g, sc)
		if !reflect.DeepEqual(ref.Parent, got.Parent) || !reflect.DeepEqual(ref.Weight, got.Weight) {
			t.Fatalf("trial %d: scratch tree differs:\nref %v / %v\ngot %v / %v", trial, ref.Parent, ref.Weight, got.Parent, got.Weight)
		}
	}
}
