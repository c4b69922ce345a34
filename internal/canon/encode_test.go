package canon_test

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"mpl/internal/canon"
	"mpl/internal/core"
	"mpl/internal/graph"
	"mpl/internal/synth"
)

// encodeSortedReference is the sort-based encoder Encode replaced: collect
// each edge kind's (u, w) pairs with u < w, sort them, then write the count
// and the pairs as uvarints after the vertex count.
func encodeSortedReference(g *graph.Graph) []byte {
	n := g.N()
	buf := binary.AppendUvarint(nil, uint64(n))
	for _, nbrs := range []func(int) []int32{g.ConflictNeighbors, g.StitchNeighbors, g.FriendNeighbors} {
		var pairs [][2]int32
		for u := 0; u < n; u++ {
			for _, w := range nbrs(u) {
				if int(w) > u {
					pairs = append(pairs, [2]int32{int32(u), w})
				}
			}
		}
		sort.Slice(pairs, func(i, j int) bool {
			if pairs[i][0] != pairs[j][0] {
				return pairs[i][0] < pairs[j][0]
			}
			return pairs[i][1] < pairs[j][1]
		})
		buf = binary.AppendUvarint(buf, uint64(len(pairs)))
		for _, p := range pairs {
			buf = binary.AppendUvarint(buf, uint64(p[0]))
			buf = binary.AppendUvarint(buf, uint64(p[1]))
		}
	}
	return buf
}

// edge is one undirected edge of a given kind (0 conflict, 1 stitch,
// 2 friend) with u < v.
type edge struct{ kind, u, v int }

// randomEdges draws up to m distinct edges over n vertices.
func randomEdges(rng *rand.Rand, n, m int) []edge {
	seen := map[edge]bool{}
	var out []edge
	for i := 0; i < m && n > 1; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		e := edge{rng.Intn(3), min(u, v), max(u, v)}
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	return out
}

// build assembles a CSR graph from the edges, in the given order.
func build(n int, edges []edge) *graph.Graph {
	b := graph.NewBuilder(n)
	for _, e := range edges {
		switch e.kind {
		case 0:
			b.AddConflict(e.u, e.v)
		case 1:
			b.AddStitch(e.u, e.v)
		case 2:
			b.AddFriend(e.u, e.v)
		}
	}
	return b.Build(nil)
}

// TestEncodeMatchesSortedReference: the streaming encoder writes exactly
// the bytes of the sort-based one, on seeded random graphs (sizes chosen
// so vertex ids cross the one- and two-byte uvarint widths) and on every
// solver-sized component of a real layout.
func TestEncodeMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var graphs []*graph.Graph
	for _, n := range []int{0, 1, 2, 7, 127, 128, 129, 300, 16384, 16385} {
		for trial := 0; trial < 4; trial++ {
			graphs = append(graphs, build(n, randomEdges(rng, n, rng.Intn(3*n+1))))
		}
	}
	dg, err := core.BuildGraph(synth.Generate(synth.Table1[0], 1), core.BuildOptions{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, comp := range dg.G.Components() {
		sub := dg.G.Subgraph(comp, nil)
		graphs = append(graphs, sub)
	}
	for i, g := range graphs {
		got, want := canon.Encode(g), encodeSortedReference(g)
		if !bytes.Equal(got, want) {
			t.Fatalf("graph %d (n=%d): Encode differs from the sorted reference\n got %x\nwant %x", i, g.N(), got, want)
		}
		// The buffer is sized up front: one allocation, never a regrowth.
		// Averaged over 100 runs, so a stray runtime allocation under
		// -race or a loaded machine cannot fail one sample.
		if allocs := testing.AllocsPerRun(100, func() { canon.Encode(g) }); allocs > 1 {
			t.Fatalf("graph %d (n=%d): Encode made %v allocations, want 1", i, g.N(), allocs)
		}
	}
}

// TestEncodeInjective: over seeded pairs of graphs that differ in one edge,
// in one edge's kind, in the vertex count, or not at all (the same edge set
// inserted in another order), the encodings are byte-equal exactly when
// (n, conflict, stitch, friend) are equal.
func TestEncodeInjective(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 2000; trial++ {
		n := 2 + rng.Intn(40)
		edges := randomEdges(rng, n, rng.Intn(4*n))
		other := slices.Clone(edges)
		n2 := n
		var op string
		switch rng.Intn(5) {
		case 0:
			op = "shuffle"
			rng.Shuffle(len(other), func(i, j int) { other[i], other[j] = other[j], other[i] })
		case 1:
			op = "add"
			other = append(other, randomEdges(rng, n, 1)...)
		case 2:
			op = "drop"
			if len(other) > 0 {
				i := rng.Intn(len(other))
				other = slices.Delete(other, i, i+1)
			}
		case 3:
			op = "rekind"
			if len(other) > 0 {
				i := rng.Intn(len(other))
				other[i].kind = (other[i].kind + 1 + rng.Intn(2)) % 3
			}
		case 4:
			op = "grow"
			n2 = n + 1
		}
		same := n == n2 && slices.Equal(edgeSet(edges), edgeSet(other))
		if got := bytes.Equal(canon.Encode(build(n, edges)), canon.Encode(build(n2, other))); got != same {
			t.Fatalf("trial %d (%s): encodings equal = %v, graphs equal = %v", trial, op, got, same)
		}
	}
}

// edgeSet is the set an edge list describes: sorted, duplicates dropped.
func edgeSet(edges []edge) []edge {
	out := slices.Clone(edges)
	slices.SortFunc(out, func(a, b edge) int {
		switch {
		case a.kind != b.kind:
			return a.kind - b.kind
		case a.u != b.u:
			return a.u - b.u
		default:
			return a.v - b.v
		}
	})
	return slices.Compact(out)
}
