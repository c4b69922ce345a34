package maxflow

import (
	"math/rand"
	"testing"

	"mpl/internal/pipeline"
	"testing/quick"
)

// edge is one undirected test edge with its capacity.
type edge struct {
	u, v int
	c    int64
}

// build is BuildUndirected over an edge list, on sc (nil allocates).
func build(n int, edges []edge, sc *pipeline.Scratch) *Network {
	us := make([]int32, len(edges))
	vs := make([]int32, len(edges))
	ws := make([]int64, len(edges))
	for i, e := range edges {
		us[i], vs[i], ws[i] = int32(e.u), int32(e.v), e.c
	}
	return BuildUndirected(n, us, vs, ws, sc)
}

func TestSimplePath(t *testing.T) {
	nw := build(3, []edge{{0, 1, 5}, {1, 2, 3}}, nil)
	if got := nw.MaxFlow(0, 2); got != 3 {
		t.Fatalf("MaxFlow = %d, want 3", got)
	}
}

func TestClassicNetwork(t *testing.T) {
	// The CLRS flow network read as undirected capacities (the antiparallel
	// 1–2 pair becomes two parallel edges): the minimum 0–5 cut is the two
	// edges into the sink, 20 + 4.
	nw := build(6, []edge{
		{0, 1, 16}, {0, 2, 13}, {1, 2, 10}, {2, 1, 4}, {1, 3, 12},
		{3, 2, 9}, {2, 4, 14}, {4, 3, 7}, {3, 5, 20}, {4, 5, 4},
	}, nil)
	if got := nw.MaxFlow(0, 5); got != 24 {
		t.Fatalf("MaxFlow = %d, want 24", got)
	}
}

func TestDisconnected(t *testing.T) {
	nw := build(4, []edge{{0, 1, 7}, {2, 3, 7}}, nil)
	if got := nw.MaxFlow(0, 3); got != 0 {
		t.Fatalf("MaxFlow = %d, want 0", got)
	}
}

func TestUndirectedTriangle(t *testing.T) {
	nw := build(3, []edge{{0, 1, 1}, {1, 2, 1}, {0, 2, 1}}, nil)
	if got := nw.MaxFlow(0, 2); got != 2 {
		t.Fatalf("triangle cut = %d, want 2", got)
	}
}

func TestMinCutSide(t *testing.T) {
	// Bottleneck between 1 and 2: cut side should be {0, 1}.
	nw := build(4, []edge{{0, 1, 10}, {1, 2, 1}, {2, 3, 10}}, nil)
	if got := nw.MaxFlow(0, 3); got != 1 {
		t.Fatalf("flow = %d", got)
	}
	side := nw.MinCutSide(0)
	want := []bool{true, true, false, false}
	for i := range want {
		if side[i] != want[i] {
			t.Fatalf("MinCutSide = %v, want %v", side, want)
		}
	}
}

func TestPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MaxFlow with source == sink did not panic")
		}
	}()
	build(2, []edge{{0, 1, 1}}, nil).MaxFlow(1, 1)
}

// bruteMinCut is the minimum, over every s–t bipartition of the n
// vertices, of the capacity crossing it.
func bruteMinCut(n int, edges []edge, s, t int) int64 {
	best := int64(1) << 60
	for mask := 0; mask < 1<<n; mask++ {
		if mask&(1<<s) == 0 || mask&(1<<t) != 0 {
			continue
		}
		var cut int64
		for _, e := range edges {
			if (mask&(1<<e.u) != 0) != (mask&(1<<e.v) != 0) {
				cut += e.c
			}
		}
		best = min(best, cut)
	}
	return best
}

// TestMatchesBruteForceOnRandomGraphs cross-checks every s–t max flow of
// seeded random weighted graphs on at most 8 vertices (parallel edges
// included) against bruteMinCut, building each network on one reused
// scratch arena so stale arena contents would show as a wrong flow.
func TestMatchesBruteForceOnRandomGraphs(t *testing.T) {
	sc := pipeline.NewScratchPool().Get()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7)
		var edges []edge
		for i := 0; i < n*2; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			edges = append(edges, edge{u, v, int64(1 + rng.Intn(5))})
		}
		for s := 0; s < n; s++ {
			for tt := 0; tt < n; tt++ {
				if s == tt {
					continue
				}
				nw := build(n, edges, sc)
				got := nw.MaxFlow(s, tt)
				nw.ReleaseScratch(sc)
				if want := bruteMinCut(n, edges, s, tt); got != want {
					t.Logf("seed %d: flow %d→%d = %d, brute-force min cut %d", seed, s, tt, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMinCutSideSeparates(t *testing.T) {
	// Property: after max-flow, the residual-reachable side never contains t,
	// and the cut capacity across the side equals the flow value.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		var edges []edge
		for i := 0; i < n*2; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			edges = append(edges, edge{u, v, int64(1 + rng.Intn(5))})
		}
		nw := build(n, edges, nil)
		s, tt := 0, n-1
		flow := nw.MaxFlow(s, tt)
		side := nw.MinCutSide(s)
		if side[tt] {
			return false
		}
		var cut int64
		for _, e := range edges {
			if side[e.u] != side[e.v] {
				cut += e.c
			}
		}
		return cut == flow
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
