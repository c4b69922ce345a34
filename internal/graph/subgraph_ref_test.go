package graph

// Differential check of Subgraph's filtered CSR copy against the map-based
// extraction it replaced, kept here verbatim as subgraphReference: for any
// graph and any vertex list, both must produce the same rows, edge counts
// and original-ID mapping, or panic with the same message; and the leased
// index must come back all zero, whether the call returned or panicked.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// subgraphReference is the map-plus-sorted-insert Subgraph this package
// shipped before the filtered CSR copy.
func subgraphReference(g *Graph, vertices []int) (*Graph, []int) {
	idx := make(map[int]int32, len(vertices))
	orig := make([]int, len(vertices))
	for i, v := range vertices {
		if v < 0 || v >= g.n {
			panic(fmt.Sprintf("graph: subgraph vertex %d out of range", v))
		}
		if _, dup := idx[v]; dup {
			panic(fmt.Sprintf("graph: subgraph vertex %d repeated", v))
		}
		idx[v] = int32(i)
		orig[i] = v
	}
	sub := New(len(vertices))
	for i, v := range vertices {
		for _, w := range g.conf[v] {
			if j, ok := idx[int(w)]; ok && int32(i) < j {
				sub.AddConflict(i, int(j))
			}
		}
		for _, w := range g.stit[v] {
			if j, ok := idx[int(w)]; ok && int32(i) < j {
				sub.AddStitch(i, int(j))
			}
		}
		for _, w := range g.friend[v] {
			if j, ok := idx[int(w)]; ok && int32(i) < j {
				sub.AddFriend(i, int(j))
			}
		}
	}
	return sub, orig
}

// subgraphOutcome runs one extraction, capturing a panic as its message.
func subgraphOutcome(f func() (*Graph, []int)) (sub *Graph, orig []int, panicked any) {
	defer func() { panicked = recover() }()
	sub, orig = f()
	return sub, orig, nil
}

// checkSubgraph compares Subgraph(vertices, index) with the reference and
// checks that index is all zero afterwards. It returns the extracted graph
// (nil when both panicked) so callers can nest.
func checkSubgraph(t testing.TB, g *Graph, vertices []int, index []int32) *Graph {
	t.Helper()
	want, wantOrig, wantPanic := subgraphOutcome(func() (*Graph, []int) { return subgraphReference(g, vertices) })
	got, gotOrig, gotPanic := subgraphOutcome(func() (*Graph, []int) { return g.Subgraph(vertices, index) })
	for v, x := range index {
		if x != 0 {
			t.Fatalf("vertices %v: index[%d] = %d after the call, want all zero", vertices, v, x)
		}
	}
	if wantPanic != nil || gotPanic != nil {
		if fmt.Sprint(wantPanic) != fmt.Sprint(gotPanic) {
			t.Fatalf("vertices %v: panic %v, reference panic %v", vertices, gotPanic, wantPanic)
		}
		return nil
	}
	if !slices.Equal(gotOrig, wantOrig) {
		t.Fatalf("vertices %v: orig %v, reference %v", vertices, gotOrig, wantOrig)
	}
	if got.N() != want.N() || got.ConflictEdgeCount() != want.ConflictEdgeCount() ||
		got.StitchEdgeCount() != want.StitchEdgeCount() || got.FriendEdgeCount() != want.FriendEdgeCount() {
		t.Fatalf("vertices %v: n/conf/stit/friend = %d/%d/%d/%d, reference %d/%d/%d/%d", vertices,
			got.N(), got.ConflictEdgeCount(), got.StitchEdgeCount(), got.FriendEdgeCount(),
			want.N(), want.ConflictEdgeCount(), want.StitchEdgeCount(), want.FriendEdgeCount())
	}
	for v := 0; v < got.N(); v++ {
		for kind, rows := range [][2][]int32{
			{got.ConflictNeighbors(v), want.ConflictNeighbors(v)},
			{got.StitchNeighbors(v), want.StitchNeighbors(v)},
			{got.FriendNeighbors(v), want.FriendNeighbors(v)},
		} {
			if !slices.Equal(rows[0], rows[1]) {
				t.Fatalf("vertices %v: kind %d row %d = %v, reference %v", vertices, kind, v, rows[0], rows[1])
			}
			// Full-capacity views: an Add* on the result reallocates the
			// row instead of writing into its neighbor's.
			if cap(rows[0]) != len(rows[0]) {
				t.Fatalf("vertices %v: kind %d row %d has spare capacity %d", vertices, kind, v, cap(rows[0])-len(rows[0]))
			}
		}
	}
	return got
}

// randomGraph draws a graph with n vertices and about m edges of each
// kind, through the Builder or (shim) through the Add* inserts.
func randomGraph(rng *rand.Rand, n, m int, shim bool) *Graph {
	b := NewBuilder(n)
	g := New(n)
	for i := 0; i < 3*m && n > 1; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		switch i % 3 {
		case 0:
			b.AddConflict(u, v)
			g.AddConflict(u, v)
		case 1:
			b.AddStitch(u, v)
			g.AddStitch(u, v)
		case 2:
			b.AddFriend(u, v)
			g.AddFriend(u, v)
		}
	}
	if shim {
		return g
	}
	return b.Build(nil)
}

func TestSubgraphMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(60)
		g := randomGraph(rng, n, rng.Intn(3*n), trial%2 == 1)
		index := make([]int32, n+rng.Intn(3)) // at least g.N(), possibly longer
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		subset := func() []int {
			var s []int
			for v := 0; v < n; v++ {
				if rng.Intn(2) == 0 {
					s = append(s, v)
				}
			}
			return s
		}
		sorted := subset()
		unsorted := slices.Clone(sorted)
		rng.Shuffle(len(unsorted), func(i, j int) { unsorted[i], unsorted[j] = unsorted[j], unsorted[i] })
		lists := [][]int{
			sorted, unsorted, {}, nil, {rng.Intn(n)}, all,
			append(slices.Clone(sorted), n),           // out of range at the end
			append([]int{-1}, sorted...),              // out of range first
			append(slices.Clone(unsorted), all[0], 0), // repeated
		}
		for _, vs := range lists {
			checkSubgraph(t, g, vs, index)
			checkSubgraph(t, g, vs, nil)
		}
		// A subgraph of a subgraph, sharing the parent's (larger) index
		// the way division's nested extractions do.
		if sub := checkSubgraph(t, g, unsorted, index); sub != nil && sub.N() > 0 {
			inner := make([]int, 0, sub.N())
			for v := sub.N() - 1; v >= 0; v -= 1 + rng.Intn(2) {
				inner = append(inner, v)
			}
			checkSubgraph(t, sub, inner, index)
			slices.Sort(inner)
			checkSubgraph(t, sub, inner, index)
		}
	}
}

// FuzzSubgraphMatchesReference decodes a small graph and a vertex list from
// the fuzz bytes: byte 0 is the vertex count (1..16), then 3-byte
// [kind, u, v] edge records up to a 0xFF separator, then one vertex per
// byte (values past n exercise the out-of-range panic, repeats the
// repeated-vertex one). Byte 0's high bit picks the shim over the Builder.
func FuzzSubgraphMatchesReference(f *testing.F) {
	f.Add([]byte{5, 0, 0, 1, 1, 1, 2, 2, 0, 2, 0xFF, 0, 1, 2})
	f.Add([]byte{0x86, 0, 0, 1, 0, 1, 2, 0, 2, 3, 1, 3, 4, 0xFF, 4, 2, 0})
	f.Add([]byte{3, 0xFF})
	f.Add([]byte{4, 0, 0, 1, 0xFF, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]&0x0F) + 1
		shim := data[0]&0x80 != 0
		data = data[1:]
		b, g := NewBuilder(n), New(n)
		for len(data) >= 3 && data[0] != 0xFF {
			u, v := int(data[1])%n, int(data[2])%n
			if u != v {
				switch data[0] % 3 {
				case 0:
					b.AddConflict(u, v)
					g.AddConflict(u, v)
				case 1:
					b.AddStitch(u, v)
					g.AddStitch(u, v)
				case 2:
					b.AddFriend(u, v)
					g.AddFriend(u, v)
				}
			}
			data = data[3:]
		}
		if len(data) > 0 && data[0] == 0xFF {
			data = data[1:]
		}
		if !shim {
			g = b.Build(nil)
		}
		vertices := make([]int, len(data))
		for i, c := range data {
			vertices[i] = int(c) % (n + 2)
		}
		checkSubgraph(t, g, vertices, make([]int32, n))
	})
}
