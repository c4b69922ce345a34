// Package canon serializes solver pieces so the memoization layer can
// recognize repeats: components that are byte-identical labeled graphs —
// what the division of a layout with repeated standard cells produces —
// share one cached color assignment (DESIGN.md §11).
//
// The identity is the labeled encoding itself, not a canonical form: the
// engines break ties by vertex index, so only byte-equal encodings are
// guaranteed to solve identically, and for those no relabeling is needed.
package canon

import (
	"encoding/binary"
	"math/bits"

	"mpl/internal/graph"
)

// MaxVertices bounds the pieces the memoization layer considers at all:
// larger pieces bypass the cache (solving them dwarfs any encoding saving,
// and distinct huge shapes would only churn the LRU).
const MaxVertices = 4096

// Encode serializes g with its own labeling: the vertex count followed by
// the conflict, stitch and friend edge lists, each as an edge count and
// then its (u, w) pairs with u < w in ascending order, all as uvarints.
// Byte-equal encodings are identical labeled graphs.
//
// Adjacency rows are sorted ascending and u ascends, so streaming each row's
// neighbors above u emits the pairs already in order — no pair buffer, no
// sort.
func Encode(g *graph.Graph) []byte {
	n := g.N()
	nc, ns, nf := g.ConflictEdgeCount(), g.StitchEdgeCount(), g.FriendEdgeCount()
	// Every vertex id is below n, so no id's uvarint is wider than n's;
	// the four counts take at most MaxVarintLen64 bytes each.
	width := (bits.Len(uint(n)|1) + 6) / 7
	buf := make([]byte, 0, 4*binary.MaxVarintLen64+2*width*(nc+ns+nf))
	buf = binary.AppendUvarint(buf, uint64(n))
	buf = appendEdgeList(buf, n, nc, g.ConflictNeighbors)
	buf = appendEdgeList(buf, n, ns, g.StitchNeighbors)
	buf = appendEdgeList(buf, n, nf, g.FriendNeighbors)
	return buf
}

func appendEdgeList(buf []byte, n, edges int, nbrs func(int) []int32) []byte {
	buf = binary.AppendUvarint(buf, uint64(edges))
	for u := 0; u < n; u++ {
		for _, w := range nbrs(u) {
			if int(w) > u { // each undirected edge once, from its lower end
				buf = binary.AppendUvarint(buf, uint64(u))
				buf = binary.AppendUvarint(buf, uint64(w))
			}
		}
	}
	return buf
}
