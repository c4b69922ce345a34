package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestAddAndQueryEdges(t *testing.T) {
	g := New(4)
	if !g.AddConflict(0, 1) {
		t.Fatal("first AddConflict returned false")
	}
	if g.AddConflict(1, 0) {
		t.Fatal("duplicate conflict accepted")
	}
	g.AddStitch(1, 2)
	g.AddFriend(2, 3)
	if !g.HasConflict(0, 1) || !g.HasConflict(1, 0) {
		t.Fatal("HasConflict missing edge")
	}
	if g.HasConflict(0, 2) || g.HasConflict(0, 0) || g.HasConflict(-1, 2) {
		t.Fatal("HasConflict phantom edge")
	}
	if !g.HasStitch(2, 1) {
		t.Fatal("HasStitch missing edge")
	}
	if g.ConflictEdgeCount() != 1 || g.StitchEdgeCount() != 1 {
		t.Fatalf("edge counts = %d/%d", g.ConflictEdgeCount(), g.StitchEdgeCount())
	}
	if g.ConflictDegree(1) != 1 || g.StitchDegree(1) != 1 {
		t.Fatalf("degrees at 1 = %d/%d", g.ConflictDegree(1), g.StitchDegree(1))
	}
	if got := g.FriendNeighbors(3); len(got) != 1 || got[0] != 2 {
		t.Fatalf("FriendNeighbors = %v", got)
	}
}

func TestAddVertex(t *testing.T) {
	g := New(1)
	v := g.AddVertex()
	if v != 1 || g.N() != 2 {
		t.Fatalf("AddVertex = %d, N = %d", v, g.N())
	}
	g.AddConflict(0, 1)
	if !g.HasConflict(0, 1) {
		t.Fatal("edge to appended vertex lost")
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self-loop did not panic")
		}
	}()
	New(2).AddConflict(1, 1)
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range edge did not panic")
		}
	}()
	New(2).AddConflict(0, 5)
}

func TestEdgeLists(t *testing.T) {
	g := New(4)
	g.AddConflict(2, 0)
	g.AddConflict(3, 1)
	g.AddStitch(0, 3)
	want := []Edge{{0, 2}, {1, 3}}
	if got := g.ConflictEdges(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ConflictEdges = %v, want %v", got, want)
	}
	if got := g.StitchEdges(); !reflect.DeepEqual(got, []Edge{{0, 3}}) {
		t.Fatalf("StitchEdges = %v", got)
	}
}

// TestEdgeListsSortedAndPresized: the edge lists come straight off the
// sorted CSR rows with no sort of their own, so they must already be in
// (U, V) order, hold exactly the edge count, and be allocated at that size.
func TestEdgeListsSortedAndPresized(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(30)
		b, shim := NewBuilder(n), New(n)
		for e := 0; e < 2*n; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			if rng.Intn(2) == 0 {
				b.AddConflict(u, v)
				shim.AddConflict(u, v)
			} else {
				b.AddStitch(u, v)
				shim.AddStitch(u, v)
			}
		}
		for _, g := range []*Graph{b.Build(nil), shim} {
			for _, lists := range []struct {
				edges []Edge
				count int
				rows  func(int) []int32
			}{
				{g.ConflictEdges(), g.ConflictEdgeCount(), g.ConflictNeighbors},
				{g.StitchEdges(), g.StitchEdgeCount(), g.StitchNeighbors},
			} {
				var want []Edge
				for u := 0; u < n; u++ {
					for _, v := range lists.rows(u) {
						if int(v) > u {
							want = append(want, Edge{U: u, V: int(v)})
						}
					}
				}
				sort.Slice(want, func(i, j int) bool {
					if want[i].U != want[j].U {
						return want[i].U < want[j].U
					}
					return want[i].V < want[j].V
				})
				if len(want) == 0 {
					want = []Edge{}
				}
				if !reflect.DeepEqual(lists.edges, want) {
					t.Fatalf("trial %d: edges %v, sorted reference %v", trial, lists.edges, want)
				}
				if len(lists.edges) != lists.count || cap(lists.edges) != lists.count {
					t.Fatalf("trial %d: %d edges in cap %d, count %d", trial, len(lists.edges), cap(lists.edges), lists.count)
				}
			}
		}
	}
}

func TestComponents(t *testing.T) {
	g := New(7)
	g.AddConflict(0, 1)
	g.AddStitch(1, 2) // stitch edges connect components too
	g.AddConflict(3, 4)
	// 5, 6 isolated
	comps := g.Components()
	if len(comps) != 4 {
		t.Fatalf("components = %d, want 4: %v", len(comps), comps)
	}
	if !reflect.DeepEqual(comps[0], []int{0, 1, 2}) {
		t.Fatalf("first component = %v", comps[0])
	}
	if !reflect.DeepEqual(comps[1], []int{3, 4}) {
		t.Fatalf("second component = %v", comps[1])
	}
}

func TestSubgraph(t *testing.T) {
	g := New(5)
	g.AddConflict(0, 1)
	g.AddConflict(1, 2)
	g.AddStitch(2, 3)
	g.AddFriend(0, 2)
	sub, orig := g.Subgraph([]int{0, 1, 2}, nil)
	if sub.N() != 3 || !reflect.DeepEqual(orig, []int{0, 1, 2}) {
		t.Fatalf("Subgraph N=%d orig=%v", sub.N(), orig)
	}
	if !sub.HasConflict(0, 1) || !sub.HasConflict(1, 2) {
		t.Fatal("subgraph lost conflict edges")
	}
	if sub.StitchEdgeCount() != 0 {
		t.Fatal("subgraph kept stitch edge with endpoint outside subset")
	}
	if len(sub.FriendNeighbors(0)) != 1 {
		t.Fatal("subgraph lost friend edge")
	}
}

func TestSubgraphPanics(t *testing.T) {
	g := New(3)
	for _, tc := range []struct {
		verts []int
		index []int32
	}{
		{[]int{0, 0}, nil},
		{[]int{0, 9}, nil},
		{[]int{0}, make([]int32, 2)}, // index shorter than the graph
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Subgraph(%v, len %d index) did not panic", tc.verts, len(tc.index))
				}
			}()
			g.Subgraph(tc.verts, tc.index)
		}()
	}
}

func TestClone(t *testing.T) {
	g := New(3)
	g.AddConflict(0, 1)
	g.AddStitch(1, 2)
	c := g.Clone()
	c.AddConflict(0, 2)
	if g.HasConflict(0, 2) {
		t.Fatal("Clone shares adjacency storage")
	}
	if !c.HasConflict(0, 1) || !c.HasStitch(1, 2) {
		t.Fatal("Clone lost edges")
	}
}

func TestPeelOrderSimple(t *testing.T) {
	// Path 0-1-2 with K=4: every vertex has conflict degree <= 2 < 4,
	// so everything peels and the core is empty.
	g := New(3)
	g.AddConflict(0, 1)
	g.AddConflict(1, 2)
	stack, core := g.PeelOrder(4, 2, nil)
	if len(stack) != 3 || len(core) != 0 {
		t.Fatalf("stack=%v core=%v", stack, core)
	}
}

func TestPeelOrderKeepsDenseCore(t *testing.T) {
	// K5 with K=4: all vertices have conflict degree 4, nothing peels.
	g := New(6)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			g.AddConflict(i, j)
		}
	}
	g.AddConflict(0, 5) // pendant vertex: degree 1, peels; then K5 stays
	stack, core := g.PeelOrder(4, 2, nil)
	if len(stack) != 1 || stack[0] != 5 {
		t.Fatalf("stack = %v, want [5]", stack)
	}
	if !reflect.DeepEqual(core, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("core = %v", core)
	}
}

func TestPeelOrderCascades(t *testing.T) {
	// Removing a pendant chain one by one: 0-1-2-3-K5.
	g := New(9)
	for i := 4; i < 9; i++ {
		for j := i + 1; j < 9; j++ {
			g.AddConflict(i, j)
		}
	}
	g.AddConflict(0, 1)
	g.AddConflict(1, 2)
	g.AddConflict(2, 3)
	g.AddConflict(3, 4)
	stack, core := g.PeelOrder(4, 2, nil)
	if len(stack) != 4 {
		t.Fatalf("stack = %v, want chain of 4", stack)
	}
	if len(core) != 5 {
		t.Fatalf("core = %v", core)
	}
}

func TestPeelOrderStitchBound(t *testing.T) {
	// A vertex with 2 stitch edges must not peel even with low conflict degree.
	g := New(3)
	g.AddStitch(0, 1)
	g.AddStitch(1, 2)
	stack, core := g.PeelOrder(4, 2, nil)
	// Vertices 0 and 2 peel first (1 stitch each); vertex 1 then drops to
	// 0 stitch degree and peels too.
	if len(stack) != 3 || len(core) != 0 {
		t.Fatalf("stack=%v core=%v", stack, core)
	}
	if stack[len(stack)-1] != 1 {
		t.Fatalf("middle vertex should peel last: %v", stack)
	}
}

func TestPeelOrderActiveMask(t *testing.T) {
	g := New(4)
	g.AddConflict(0, 1)
	g.AddConflict(1, 2)
	g.AddConflict(2, 3)
	active := []bool{true, true, false, false}
	stack, core := g.PeelOrder(1, 2, active)
	for _, v := range append(append([]int{}, stack...), core...) {
		if !active[v] {
			t.Fatalf("inactive vertex %d appeared in result", v)
		}
	}
	// With K=1, vertex 0 (deg 1 inside active set) does not peel... deg(0)=1 >= 1.
	// Vertex 1 has active degree 1 as well. Nothing peels.
	if len(stack) != 0 || len(core) != 2 {
		t.Fatalf("stack=%v core=%v", stack, core)
	}
}

// peelSafety is the paper's invariant: popping the stack in reverse removal
// order, each vertex sees fewer than k conflict-colored neighbors, so a legal
// color always exists.
func TestPeelSafetyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := New(n)
		for i := 0; i < n*2; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddConflict(u, v)
			}
		}
		k := 2 + rng.Intn(4)
		stack, core := g.PeelOrder(k, 2, nil)
		inCore := make(map[int]bool)
		for _, v := range core {
			inCore[v] = true
		}
		// Replay: start with core "colored", pop stack in reverse.
		colored := make([]bool, g.N())
		for _, v := range core {
			colored[v] = true
		}
		for i := len(stack) - 1; i >= 0; i-- {
			v := stack[i]
			cnt := 0
			for _, w := range g.ConflictNeighbors(v) {
				if colored[w] {
					cnt++
				}
			}
			if cnt >= k {
				return false
			}
			colored[v] = true
		}
		// Everything accounted for exactly once.
		return len(stack)+len(core) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBiconnectedTriangleWithTail(t *testing.T) {
	// Triangle 0-1-2 plus tail 2-3: blocks {0,1,2} and {2,3}; cut vertex 2.
	g := New(4)
	g.AddConflict(0, 1)
	g.AddConflict(1, 2)
	g.AddConflict(0, 2)
	g.AddConflict(2, 3)
	blocks, cuts := g.BiconnectedComponents()
	if len(blocks) != 2 {
		t.Fatalf("blocks = %v", blocks)
	}
	sort.Slice(blocks, func(i, j int) bool { return len(blocks[i]) < len(blocks[j]) })
	if !reflect.DeepEqual(blocks[0], []int{2, 3}) || !reflect.DeepEqual(blocks[1], []int{0, 1, 2}) {
		t.Fatalf("blocks = %v", blocks)
	}
	if !reflect.DeepEqual(cuts, []int{2}) {
		t.Fatalf("cuts = %v", cuts)
	}
}

func TestBiconnectedBridge(t *testing.T) {
	// Two triangles joined by a bridge 2-3.
	g := New(6)
	g.AddConflict(0, 1)
	g.AddConflict(1, 2)
	g.AddConflict(0, 2)
	g.AddConflict(3, 4)
	g.AddConflict(4, 5)
	g.AddConflict(3, 5)
	g.AddConflict(2, 3)
	blocks, cuts := g.BiconnectedComponents()
	if len(blocks) != 3 {
		t.Fatalf("blocks = %v, want 3", blocks)
	}
	if !reflect.DeepEqual(cuts, []int{2, 3}) {
		t.Fatalf("cuts = %v, want [2 3]", cuts)
	}
}

func TestBiconnectedIsolatedAndSingle(t *testing.T) {
	g := New(3)
	g.AddConflict(0, 1)
	blocks, cuts := g.BiconnectedComponents()
	if len(blocks) != 2 {
		t.Fatalf("blocks = %v", blocks)
	}
	if len(cuts) != 0 {
		t.Fatalf("cuts = %v", cuts)
	}
}

func TestBiconnectedStitchEdgesBind(t *testing.T) {
	// A stitch edge must participate in connectivity: 0-1 conflict,
	// 1-2 stitch, 2-0 conflict forms one biconnected triangle.
	g := New(3)
	g.AddConflict(0, 1)
	g.AddStitch(1, 2)
	g.AddConflict(2, 0)
	blocks, cuts := g.BiconnectedComponents()
	if len(blocks) != 1 || len(blocks[0]) != 3 {
		t.Fatalf("blocks = %v", blocks)
	}
	if len(cuts) != 0 {
		t.Fatalf("cuts = %v", cuts)
	}
}

// TestBiconnectedCoversAllVertices: every vertex appears in at least one
// block, and every edge's endpoints co-occur in some block.
func TestBiconnectedCoverageProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		g := New(n)
		for i := 0; i < n*3/2; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddConflict(u, v)
			}
		}
		blocks, _ := g.BiconnectedComponents()
		seen := make([]bool, n)
		for _, b := range blocks {
			for _, v := range b {
				seen[v] = true
			}
		}
		for v := 0; v < n; v++ {
			if !seen[v] {
				return false
			}
		}
		for _, e := range g.ConflictEdges() {
			ok := false
			for _, b := range blocks {
				hasU, hasV := false, false
				for _, v := range b {
					hasU = hasU || v == e.U
					hasV = hasV || v == e.V
				}
				if hasU && hasV {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBiconnectedCycleIsOneBlock(t *testing.T) {
	n := 12
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddConflict(i, (i+1)%n)
	}
	blocks, cuts := g.BiconnectedComponents()
	if len(blocks) != 1 || len(blocks[0]) != n {
		t.Fatalf("cycle blocks = %v", blocks)
	}
	if len(cuts) != 0 {
		t.Fatalf("cycle cuts = %v", cuts)
	}
}

// TestArticulationMatchesBruteForce: a vertex is an articulation point iff
// removing it increases the number of connected components (over CE ∪ SE).
func TestArticulationMatchesBruteForce(t *testing.T) {
	countComponents := func(g *Graph, skip int) int {
		n := g.N()
		seen := make([]bool, n)
		comps := 0
		for s := 0; s < n; s++ {
			if s == skip || seen[s] {
				continue
			}
			comps++
			stack := []int{s}
			seen[s] = true
			for len(stack) > 0 {
				u := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				visit := func(adj []int32) {
					for _, w := range adj {
						wi := int(w)
						if wi != skip && !seen[wi] {
							seen[wi] = true
							stack = append(stack, wi)
						}
					}
				}
				visit(g.ConflictNeighbors(u))
				visit(g.StitchNeighbors(u))
			}
		}
		return comps
	}
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(14)
		g := New(n)
		for i := 0; i < n*3/2; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			if rng.Intn(5) == 0 {
				if !g.HasConflict(u, v) {
					g.AddStitch(u, v)
				}
			} else if !g.HasStitch(u, v) {
				g.AddConflict(u, v)
			}
		}
		_, cuts := g.BiconnectedComponents()
		isCut := make([]bool, n)
		for _, v := range cuts {
			isCut[v] = true
		}
		base := countComponents(g, -1)
		for v := 0; v < n; v++ {
			// Removing v: isolated vertices don't count as splits; brute
			// force compares component counts excluding v itself.
			deg := g.ConflictDegree(v) + g.StitchDegree(v)
			want := deg > 0 && countComponents(g, v) > base
			if isCut[v] != want {
				t.Fatalf("trial %d: vertex %d articulation = %v, brute force %v", trial, v, isCut[v], want)
			}
		}
	}
}
