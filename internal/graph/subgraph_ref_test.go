package graph

// Differential check of Subgraph's filtered CSR copy against the map-based
// extraction it replaced, kept here verbatim as subgraphReference: for any
// graph and any vertex list, both must produce the same rows and edge
// counts, or panic with the same message; and the leased index must come
// back all zero, whether the call returned or panicked.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// subgraphReference is the map-plus-sorted-insert Subgraph this package
// shipped before the filtered CSR copy, building into the legacy mutable
// representation (mutable_ref_test.go), less the original-ID mapping it
// also returned (a copy of vertices).
func subgraphReference(g *Graph, vertices []int) *mutableRef {
	idx := make(map[int]int32, len(vertices))
	for i, v := range vertices {
		if v < 0 || v >= g.n {
			panic(fmt.Sprintf("graph: subgraph vertex %d out of range", v))
		}
		if _, dup := idx[v]; dup {
			panic(fmt.Sprintf("graph: subgraph vertex %d repeated", v))
		}
		idx[v] = int32(i)
	}
	sub := newMutableRef(len(vertices))
	rows, _ := kindRows(g)
	for i, v := range vertices {
		for kind, row := range rows {
			for _, w := range row(v) {
				if j, ok := idx[int(w)]; ok && int32(i) < j {
					sub.add(kind, i, int(j))
				}
			}
		}
	}
	return sub
}

// subgraphOutcome runs one extraction, capturing a panic as its message.
func subgraphOutcome[G any](f func() G) (sub G, panicked any) {
	defer func() { panicked = recover() }()
	return f(), nil
}

// checkSubgraph compares Subgraph(vertices, index) with the reference and
// checks that index is all zero afterwards. It returns the extracted graph
// (nil when both panicked) so callers can nest.
func checkSubgraph(t testing.TB, g *Graph, vertices []int, index []int32) *Graph {
	t.Helper()
	want, wantPanic := subgraphOutcome(func() *mutableRef { return subgraphReference(g, vertices) })
	got, gotPanic := subgraphOutcome(func() *Graph { return g.Subgraph(vertices, index) })
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
	if diff := refMismatch(got, want); diff != "" {
		t.Fatalf("vertices %v: %s", vertices, diff)
	}
	rows, _ := kindRows(got)
	for kind, row := range rows {
		for v := 0; v < got.N(); v++ {
			// Full-capacity views: an append by a caller reallocates the
			// row instead of writing into its neighbor's.
			if r := row(v); cap(r) != len(r) {
				t.Fatalf("vertices %v: kind %d row %d has spare capacity %d", vertices, kind, v, cap(r)-len(r))
			}
		}
	}
	return got
}

// randomGraph draws a Builder graph with n vertices and about m edges of
// each kind, and the same edges inserted into the legacy reference.
func randomGraph(rng *rand.Rand, n, m int) (*Graph, *mutableRef) {
	b, ref := NewBuilder(n), newMutableRef(n)
	for i := 0; i < 3*m && n > 1; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		addKind(b, i%3, u, v)
		ref.add(i%3, u, v)
	}
	return b.Build(nil), ref
}

// addKind records {u,v} in b as an edge of the given kind.
func addKind(b *Builder, kind, u, v int) {
	switch kind {
	case kindConflict:
		b.AddConflict(u, v)
	case kindStitch:
		b.AddStitch(u, v)
	case kindFriend:
		b.AddFriend(u, v)
	}
}

func TestSubgraphMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(60)
		g, ref := randomGraph(rng, n, rng.Intn(3*n))
		if diff := refMismatch(g, ref); diff != "" {
			t.Fatalf("trial %d: Builder graph vs reference: %s", trial, diff)
		}
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
// the fuzz bytes: byte 0's low nibble is the vertex count minus one (1..16;
// its high bits are ignored), then 3-byte [kind, u, v] edge records up to a
// 0xFF separator, then one vertex per byte (values past n exercise the
// out-of-range panic, repeats the repeated-vertex one). Every input first
// checks the Builder graph against the legacy reference, then extracts.
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
		data = data[1:]
		b, ref := NewBuilder(n), newMutableRef(n)
		for len(data) >= 3 && data[0] != 0xFF {
			u, v := int(data[1])%n, int(data[2])%n
			if u != v {
				addKind(b, int(data[0])%3, u, v)
				ref.add(int(data[0])%3, u, v)
			}
			data = data[3:]
		}
		if len(data) > 0 && data[0] == 0xFF {
			data = data[1:]
		}
		g := b.Build(nil)
		if diff := refMismatch(g, ref); diff != "" {
			t.Fatalf("Builder graph vs reference: %s", diff)
		}
		vertices := make([]int, len(data))
		for i, c := range data {
			vertices[i] = int(c) % (n + 2)
		}
		checkSubgraph(t, g, vertices, make([]int32, n))
	})
}
