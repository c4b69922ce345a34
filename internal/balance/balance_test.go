package balance

import (
	"math"
	"math/rand"
	"testing"

	"mpl/internal/coloring"
	"mpl/internal/graph"
)

func TestSpread(t *testing.T) {
	cases := []struct {
		areas []int64
		want  float64
	}{
		{nil, 0},
		{[]int64{5, 5, 5, 5}, 0},
		{[]int64{0, 0, 0, 0}, 0},
		{[]int64{10, 0}, 2}, // (10-0)/5
		{[]int64{4, 8}, 4.0 / 6.0},
	}
	for _, c := range cases {
		if got := Spread(c.areas); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Spread(%v) = %v, want %v", c.areas, got, c.want)
		}
	}
}

func TestMaskAreas(t *testing.T) {
	colors := []int{0, 1, 1, 3, -1}
	areas := []int64{10, 20, 30, 40, 99}
	got := MaskAreas(colors, areas, 4)
	want := []int64{10, 50, 0, 40}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MaskAreas = %v, want %v", got, want)
		}
	}
}

func TestRebalanceTwoComponents(t *testing.T) {
	// Two disjoint edges, all area initially on masks 0/1. Rebalancing can
	// rotate one component to masks 2/3, halving the spread.
	b := graph.NewBuilder(4)
	b.AddConflict(0, 1)
	b.AddConflict(2, 3)
	g := b.Build(nil)
	colors := []int{0, 1, 0, 1}
	areas := []int64{10, 10, 10, 10}
	before := Spread(MaskAreas(colors, areas, 4))
	Rebalance(g, colors, areas, 4)
	after := Spread(MaskAreas(colors, areas, 4))
	if after >= before {
		t.Fatalf("spread %v -> %v, want improvement", before, after)
	}
	if after != 0 {
		t.Fatalf("perfectly balanceable case ended at spread %v (colors %v)", after, colors)
	}
}

// randomGraph draws ce conflict and then se stitch candidates over n
// vertices; a stitch never lands on a pair already joined.
func randomGraph(rng *rand.Rand, n, ce, se int) *graph.Graph {
	b := graph.NewBuilder(n)
	joined := map[[2]int]bool{}
	for i := 0; i < ce; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddConflict(u, v)
			joined[[2]int{min(u, v), max(u, v)}] = true
		}
	}
	for i := 0; i < se; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if pair := [2]int{min(u, v), max(u, v)}; u != v && !joined[pair] {
			b.AddStitch(u, v)
			joined[pair] = true
		}
	}
	return b.Build(nil)
}

// TestRebalancePreservesCost is the core invariant: rotation never changes
// conflicts or stitches.
func TestRebalancePreservesCost(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 60; trial++ {
		n := 10 + rng.Intn(40)
		g := randomGraph(rng, n, n, n/3)
		k := 4 + rng.Intn(2)
		colors := make([]int, n)
		areas := make([]int64, n)
		for v := range colors {
			colors[v] = rng.Intn(k)
			areas[v] = int64(1 + rng.Intn(100))
		}
		c0, s0 := coloring.Count(g, colors)
		before := Spread(MaskAreas(colors, areas, k))
		Rebalance(g, colors, areas, k)
		c1, s1 := coloring.Count(g, colors)
		after := Spread(MaskAreas(colors, areas, k))
		if c0 != c1 || s0 != s1 {
			t.Fatalf("trial %d: cost changed: %d/%d -> %d/%d", trial, c0, s0, c1, s1)
		}
		if after > before+1e-12 {
			t.Fatalf("trial %d: spread worsened %v -> %v", trial, before, after)
		}
		if err := coloring.Validate(g, colors, k); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestRebalancePanics(t *testing.T) {
	g := graph.NewBuilder(2).Build(nil)
	cases := []func(){
		func() { Rebalance(g, []int{0}, []int64{1, 1}, 4) },
		func() { Rebalance(g, []int{0, 0}, []int64{1}, 4) },
		func() { Rebalance(g, []int{0, 0}, []int64{1, 1}, 1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}
