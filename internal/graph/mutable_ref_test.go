package graph

// The per-insert adjacency representation Graph carried before the CSR
// build — one sorted []int32 row per vertex and edge kind, grown by a
// binary-search insert per edge — kept here verbatim as the oracle for the
// Builder (TestBuilderMatchesMutable, FuzzSubgraphMatchesReference) and
// for Subgraph (subgraphReference).

import (
	"fmt"
	"slices"
)

// Edge kinds, indexing mutableRef's rows and counts.
const (
	kindConflict = iota
	kindStitch
	kindFriend
	numKinds
)

// mutableRef is the legacy mutable graph: rows[kind][v] is v's sorted,
// duplicate-free adjacency and m[kind] the undirected edge count.
type mutableRef struct {
	n    int
	rows [numKinds][][]int32
	m    [numKinds]int
}

func newMutableRef(n int) *mutableRef {
	r := &mutableRef{n: n}
	for k := range r.rows {
		r.rows[k] = make([][]int32, n)
	}
	return r
}

// add inserts the undirected edge {u,v} of the given kind, reporting whether
// it was new; it panics on a self-loop or an out-of-range endpoint, with the
// Builder's messages.
func (r *mutableRef) add(kind, u, v int) bool {
	if u < 0 || u >= r.n || v < 0 || v >= r.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, r.n))
	}
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at %d", u))
	}
	rows := r.rows[kind]
	row, fresh := sortedInsert(rows[u], int32(v))
	if !fresh {
		return false
	}
	rows[u] = row
	rows[v], _ = sortedInsert(rows[v], int32(u))
	r.m[kind]++
	return true
}

// sortedInsert puts v into ascending adjacency adj, reporting whether it
// was absent.
func sortedInsert(adj []int32, v int32) ([]int32, bool) {
	i, found := slices.BinarySearch(adj, v)
	if found {
		return adj, false
	}
	return slices.Insert(adj, i, v), true
}

// kindRows returns g's row accessor and edge count per kind, in
// mutableRef's kind order.
func kindRows(g *Graph) ([numKinds]func(int) []int32, [numKinds]int) {
	return [numKinds]func(int) []int32{g.ConflictNeighbors, g.StitchNeighbors, g.FriendNeighbors},
		[numKinds]int{g.ConflictEdgeCount(), g.StitchEdgeCount(), g.FriendEdgeCount()}
}

// refMismatch compares g with the reference through g's public accessors
// and describes the first difference, or returns "" when they agree: same
// vertex count, same edge count per kind, same row contents everywhere.
func refMismatch(g *Graph, r *mutableRef) string {
	if g.N() != r.n {
		return fmt.Sprintf("n = %d, reference %d", g.N(), r.n)
	}
	rows, counts := kindRows(g)
	if counts != r.m {
		return fmt.Sprintf("conf/stit/friend edges = %v, reference %v", counts, r.m)
	}
	for kind := range rows {
		for v := 0; v < r.n; v++ {
			if got, want := rows[kind](v), r.rows[kind][v]; !slices.Equal(got, want) {
				return fmt.Sprintf("kind %d row %d = %v, reference %v", kind, v, got, want)
			}
		}
	}
	return ""
}
