package bound

import (
	"math"
	"math/rand"
	"testing"

	"mpl/internal/graph"
)

func completeGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddConflict(i, j)
		}
	}
	return b.Build(nil)
}

func TestK5Bound(t *testing.T) {
	g := completeGraph(5)
	if got := MinConflicts(g, 4); got != 1 {
		t.Fatalf("K5 bound = %d, want 1", got)
	}
	// K5 is 5-colorable: bound under K=5 is 0.
	if got := MinConflicts(g, 5); got != 0 {
		t.Fatalf("K5 with 5 colors = %d, want 0", got)
	}
}

func TestDisjointK5s(t *testing.T) {
	// Three disjoint K5s → bound 3.
	b := graph.NewBuilder(15)
	for c := 0; c < 3; c++ {
		for i := 0; i < 5; i++ {
			for j := i + 1; j < 5; j++ {
				b.AddConflict(c*5+i, c*5+j)
			}
		}
	}
	g := b.Build(nil)
	if got := MinConflicts(g, 4); got != 3 {
		t.Fatalf("bound = %d, want 3", got)
	}
}

func TestSparseGraphBoundZero(t *testing.T) {
	b := graph.NewBuilder(10)
	for i := 0; i < 9; i++ {
		b.AddConflict(i, i+1)
	}
	g := b.Build(nil)
	if got := MinConflicts(g, 4); got != 0 {
		t.Fatalf("path bound = %d, want 0", got)
	}
}

func TestPackCliquesEdgeCases(t *testing.T) {
	if got := PackCliques(graph.NewBuilder(0).Build(nil), 3); got != nil {
		t.Fatalf("empty graph = %v", got)
	}
	if got := PackCliques(graph.NewBuilder(3).Build(nil), 1); len(got) != 3 {
		t.Fatalf("size-1 packing = %v", got)
	}
	if got := PackCliques(completeGraph(4), 9); len(got) != 0 {
		t.Fatalf("oversized clique = %v", got)
	}
}

func TestBadKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("k=0 did not panic")
		}
	}()
	MinConflicts(graph.NewBuilder(1).Build(nil), 0)
}

// bruteChromaticConflicts computes the true minimum conflict count by
// enumeration (small n).
func bruteChromaticConflicts(g *graph.Graph, k int) int {
	n := g.N()
	edges := g.ConflictEdges()
	colors := make([]int, n)
	best := math.MaxInt
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			c := 0
			for _, e := range edges {
				if colors[e.U] == colors[e.V] {
					c++
				}
			}
			if c < best {
				best = c
			}
			return
		}
		for c := 0; c < k; c++ {
			colors[i] = c
			rec(i + 1)
		}
	}
	rec(0)
	return best
}

// TestBoundIsSound: the packing bound never exceeds the true optimum.
func TestBoundIsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(6)
		b := graph.NewBuilder(n)
		for i := 0; i < n*2; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddConflict(u, v)
			}
		}
		g := b.Build(nil)
		k := 2 + rng.Intn(3)
		lb := MinConflicts(g, k)
		opt := bruteChromaticConflicts(g, k)
		if lb > opt {
			t.Fatalf("trial %d: bound %d exceeds optimum %d (k=%d, n=%d)", trial, lb, opt, k, n)
		}
	}
}

// TestCliquesAreCliquesAndDisjoint: structural validity of the packing.
func TestCliquesAreCliquesAndDisjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 40; trial++ {
		n := 6 + rng.Intn(20)
		b := graph.NewBuilder(n)
		for i := 0; i < n*3; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddConflict(u, v)
			}
		}
		g := b.Build(nil)
		size := 3 + rng.Intn(3)
		seen := make([]bool, n)
		for _, cl := range PackCliques(g, size) {
			if len(cl) != size {
				t.Fatalf("clique size %d, want %d", len(cl), size)
			}
			for i, u := range cl {
				if seen[u] {
					t.Fatalf("vertex %d reused across cliques", u)
				}
				seen[u] = true
				for _, v := range cl[i+1:] {
					if !g.HasConflict(u, v) {
						t.Fatalf("non-edge (%d,%d) inside clique %v", u, v, cl)
					}
				}
			}
		}
	}
}
