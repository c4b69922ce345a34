package graph

// CSR (compressed sparse row) construction. A Builder collects raw
// undirected edge pairs in flat append-only buffers — no per-insert
// deduplication, no per-vertex allocation — and Build materializes the
// decomposition graph in two passes per edge kind:
//
//	count: one sweep over the pairs tallies every vertex's degree, and a
//	       prefix sum turns the tallies into row offsets;
//	fill:  a second sweep scatters both directions of every pair into one
//	       contiguous int32 id array at those offsets.
//
// Each row is then sorted and compacted, and slid down over the gaps its
// predecessors' duplicates left, so duplicate insertions cost O(log deg)
// amortized instead of the O(deg) per-insert scan that went quadratic on
// hub vertices. The resulting Graph holds each edge kind as one offsets
// array and one id array (struct-of-arrays). Nothing edits a graph after
// it is built: ApplyEdits' dirty-region rebuild holds only the pairs it
// re-derived in a Builder and BuildSpliced copies every other row from the
// prior graph, and Subgraph copies filtered rows into arrays of its own.

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// MaxVertices is the largest vertex count a Graph can hold: vertex ids are
// int32, so anything beyond 2^31−1 would overflow silently. NewBuilder
// enforces it, and the Builder's Add methods range-check ids before
// narrowing them; internal/core checks fragment counts against it before
// building and returns an error instead of panicking.
const MaxVertices = math.MaxInt32

// maxArenaEntries bounds one edge kind's directed id array (two entries
// per undirected edge). Row offsets are int32, so the array must stay
// addressable by them.
const maxArenaEntries = math.MaxInt32

// Int32Arena is the slice-recycling surface a Builder can lease transient
// build state (fill cursors, splice marks and fresh-entry orders) from;
// *pipeline.Scratch satisfies it. Int32s must return a zeroed slice, as a
// fresh one is. A nil arena — or a typed-nil one, since the Scratch methods
// are nil-safe — simply allocates.
type Int32Arena interface {
	Int32s(n int) []int32
	PutInt32s(b []int32)
}

// Builder accumulates the edge set of a graph with n vertices for a
// two-pass count-then-fill CSR build. Duplicate pairs are allowed (Build
// compacts them); the zero Builder is not usable — call NewBuilder.
type Builder struct {
	n      int
	conf   []int32 // flat (u,v) pairs
	stit   []int32
	friend []int32
}

// NewBuilder returns a Builder for a graph with n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 || n > MaxVertices {
		panic(fmt.Sprintf("graph: vertex count %d outside [0, %d]", n, MaxVertices))
	}
	return &Builder{n: n}
}

// checkPair range-checks an edge as ints, before any narrowing to int32
// could alias an out-of-range id onto a real vertex.
func (b *Builder) checkPair(u, v int) {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at %d", u))
	}
}

// AddConflict records an undirected conflict edge. Duplicates are fine.
func (b *Builder) AddConflict(u, v int) {
	b.checkPair(u, v)
	b.conf = append(b.conf, int32(u), int32(v))
}

// AddStitch records an undirected stitch edge.
func (b *Builder) AddStitch(u, v int) {
	b.checkPair(u, v)
	b.stit = append(b.stit, int32(u), int32(v))
}

// AddFriend records an undirected color-friendly edge.
func (b *Builder) AddFriend(u, v int) {
	b.checkPair(u, v)
	b.friend = append(b.friend, int32(u), int32(v))
}

// AddConflictPairs bulk-appends flat (u,v) pairs — the streaming build's
// per-shard edge lists drain through here without re-boxing into ints.
func (b *Builder) AddConflictPairs(pairs []int32) {
	b.validatePairs(pairs)
	b.conf = append(b.conf, pairs...)
}

// AddFriendPairs bulk-appends flat color-friendly (u,v) pairs.
func (b *Builder) AddFriendPairs(pairs []int32) {
	b.validatePairs(pairs)
	b.friend = append(b.friend, pairs...)
}

// Grow pre-extends the pair buffers for at least the given number of
// additional flat entries per edge kind (two entries per undirected edge).
// The streaming build sums its shard sizes and grows once, so draining a
// million-feature edge set appends into place instead of repeatedly
// reallocating — and copying — multi-hundred-megabyte buffers.
func (b *Builder) Grow(conf, stit, friend int) {
	b.conf = slices.Grow(b.conf, conf)
	b.stit = slices.Grow(b.stit, stit)
	b.friend = slices.Grow(b.friend, friend)
}

func (b *Builder) validatePairs(pairs []int32) {
	if len(pairs)%2 != 0 {
		panic(fmt.Sprintf("graph: odd pair buffer length %d", len(pairs)))
	}
	for i := 0; i < len(pairs); i += 2 {
		b.checkPair(int(pairs[i]), int(pairs[i+1]))
	}
}

// Build materializes the graph. sc, when non-nil, lends the transient
// fill cursors (they are returned before Build exits); the offsets and id
// arrays themselves belong to the returned Graph and are never pooled.
// The builder must not be reused afterwards.
func (b *Builder) Build(sc Int32Arena) *Graph {
	g := &Graph{n: b.n}
	// Each pair buffer is released as soon as its rows are materialized:
	// holding all three alongside all three id arrays would double peak heap
	// on million-feature builds (and, on a GC-pressured machine, the
	// collector's marking time with it).
	g.conf, g.nConf = csrRows(b.n, b.conf, sc)
	b.conf = nil
	g.stit, g.nStit = csrRows(b.n, b.stit, sc)
	b.stit = nil
	g.friend, g.nFriend = csrRows(b.n, b.friend, sc)
	b.friend = nil
	return g
}

// csrRows runs the two-pass count-then-fill for one edge kind and returns
// its rows plus the number of unique undirected edges.
func csrRows(n int, pairs []int32, sc Int32Arena) (csr, int) {
	if len(pairs) == 0 {
		return csr{}, 0
	}
	if len(pairs) > maxArenaEntries {
		panic(fmt.Sprintf("graph: edge arena needs %d entries, max %d", len(pairs), maxArenaEntries))
	}

	// Pass 1: count. off[v+1] accumulates deg(v), then a prefix sum turns
	// counts into row start offsets.
	off := make([]int32, n+1)
	for i := 0; i < len(pairs); i += 2 {
		off[pairs[i]+1]++
		off[pairs[i+1]+1]++
	}
	for v := 1; v <= n; v++ {
		off[v] += off[v-1]
	}

	// Pass 2: fill. cursor[v] walks row v from its start while both
	// directions of every pair scatter into the shared id array.
	var cursor []int32
	if sc != nil {
		cursor = sc.Int32s(n)
		defer sc.PutInt32s(cursor)
	} else {
		cursor = make([]int32, n)
	}
	copy(cursor, off)
	adj := make([]int32, len(pairs))
	for i := 0; i < len(pairs); i += 2 {
		u, v := pairs[i], pairs[i+1]
		adj[cursor[u]] = v
		cursor[u]++
		adj[cursor[v]] = u
		cursor[v]++
	}

	// Sort and compact each row, sliding it down over the gaps earlier
	// rows' duplicates left; off[v] is rewritten to the row's new start
	// once its old start has been read. cursor[v] is the row's old end.
	w := int32(0)
	for v := 0; v < n; v++ {
		row := adj[off[v]:cursor[v]]
		// A row that arrives sorted and unique — any row of degree one, and
		// any row whose pairs were emitted in ascending order — needs only
		// this linear check, not the sort and compaction.
		if !strictlyIncreasing(row) {
			slices.Sort(row)
			row = slices.Compact(row)
		}
		off[v] = w
		w += int32(copy(adj[w:], row))
	}
	off[n] = w
	return csr{off: off, adj: adj[:w]}, int(w) / 2
}

// strictlyIncreasing reports whether row is sorted without duplicates.
func strictlyIncreasing(row []int32) bool {
	for i := 1; i < len(row); i++ {
		if row[i-1] >= row[i] {
			return false
		}
	}
	return true
}

// BuildSpliced materializes the graph that an edit turns prev into. The
// builder holds only the fresh pairs; every other edge is one of prev's,
// carried over through the vertex maps. newToOld[i] is the prior vertex
// that new vertex i continues, or -1 when i was rebuilt; oldToNew is its
// inverse, -1 for a lost prior vertex (removed or rebuilt). Both maps must
// be monotonic on their defined entries, and every fresh pair must have a
// rebuilt endpoint; BuildSpliced panics otherwise.
//
// The result is byte for byte the graph Build returns when the builder also
// holds every prior pair of two surviving vertices under their new ids, at
// a cost that follows the edit rather than the graph. A reused vertex is
// touched when it has a fresh entry or a lost neighbor in some edge kind;
// the marks come from the fresh pairs and the lost vertices' rows, once per
// call. Per edge kind, one pass over the new vertices in order then writes
// each row exactly once:
//
//   - a run of untouched reused vertices with consecutive prior ids is one
//     block: its offsets are prev's shifted by a constant, and its ids are
//     prev's id range mapped through oldToNew in one flat loop (every
//     neighbor survives, and oldToNew is monotonic, so each row stays
//     sorted);
//   - a touched reused vertex maps its prior row through oldToNew, drops
//     the lost neighbors and merges in its sorted, deduplicated fresh
//     entries;
//   - a rebuilt vertex's row is its fresh entries alone.
//
// Every mapped entry is a reused vertex and every fresh entry of a reused
// vertex a rebuilt one, so the two sources never overlap and the rows come
// out sorted and unique, as Build's canonical rows do. sc lends the
// transient marks and fresh-entry orders, leased once per call; the offsets
// and id arrays are sized exactly and belong to the returned Graph. The
// builder must not be reused afterwards.
func (b *Builder) BuildSpliced(prev *Graph, newToOld, oldToNew []int32, sc Int32Arena) *Graph {
	n, nOld := b.n, prev.n
	if len(newToOld) != n || len(oldToNew) != nOld {
		panic(fmt.Sprintf("graph: splice maps have %d and %d entries for %d new and %d prior vertices",
			len(newToOld), len(oldToNew), n, nOld))
	}
	lease := func(k int) []int32 {
		if sc == nil {
			return make([]int32, k)
		}
		return sc.Int32s(k)
	}
	release := func(s []int32) {
		if sc != nil {
			sc.PutInt32s(s)
		}
	}
	kinds := [...]struct {
		prev  *csr
		pairs []int32
	}{{&prev.conf, b.conf}, {&prev.stit, b.stit}, {&prev.friend, b.friend}}

	// One pass over the prior vertices checks that the maps are monotonic
	// inverses, marks every surviving neighbor of a lost vertex as touched,
	// and sizes every kind: a lost vertex takes its own row and its entry
	// in each surviving neighbor's.
	touched := lease(n)
	defer release(touched)
	var size [len(kinds)]int
	for k, kd := range kinds {
		size[k] = len(kd.prev.adj)
	}
	kept, last := 0, int32(-1)
	for o, i := range oldToNew {
		if i >= 0 {
			if int(i) >= n || newToOld[i] != int32(o) || i <= last {
				panic(fmt.Sprintf("graph: splice maps are not monotonic inverses at prior vertex %d", o))
			}
			kept, last = kept+1, i
			continue
		}
		for k, kd := range kinds {
			row := kd.prev.row(o)
			size[k] -= len(row)
			for _, w := range row {
				if m := oldToNew[w]; m >= 0 {
					touched[m] = 1
					size[k]--
				}
			}
		}
	}
	for _, o := range newToOld {
		if o >= 0 {
			kept--
		}
	}
	if kept != 0 {
		panic("graph: splice maps are not monotonic inverses")
	}

	// Each kind's fresh entries, both directions of every pair, as indices
	// into its pair buffer sorted by (vertex, neighbor) with duplicates
	// dropped: entry e is the directed pair (pairs[e], pairs[e^1]).
	total := 0
	for _, kd := range kinds {
		total += len(kd.pairs)
	}
	ordBuf := lease(total)
	defer release(ordBuf)
	var ords [len(kinds)][]int32
	rest := ordBuf
	for k, kd := range kinds {
		pairs := kd.pairs
		ord := rest[:len(pairs)]
		rest = rest[len(pairs):]
		for e := range ord {
			u := pairs[e]
			if newToOld[u] >= 0 {
				if newToOld[pairs[e^1]] >= 0 {
					panic(fmt.Sprintf("graph: fresh pair (%d,%d) joins two reused vertices", u, pairs[e^1]))
				}
				touched[u] = 1
			}
			ord[e] = int32(e)
		}
		slices.SortFunc(ord, func(x, y int32) int {
			if c := cmp.Compare(pairs[x], pairs[y]); c != 0 {
				return c
			}
			return cmp.Compare(pairs[x^1], pairs[y^1])
		})
		ords[k] = slices.CompactFunc(ord, func(x, y int32) bool {
			return pairs[x] == pairs[y] && pairs[x^1] == pairs[y^1]
		})
	}

	g := &Graph{n: n}
	out := [...]*csr{&g.conf, &g.stit, &g.friend}
	counts := [...]*int{&g.nConf, &g.nStit, &g.nFriend}
	for k, kd := range kinds {
		m := size[k] + len(ords[k])
		*out[k] = spliceRows(kd.prev, kd.pairs, ords[k], newToOld, oldToNew, touched, m)
		*counts[k] = m / 2
	}
	b.conf, b.stit, b.friend = nil, nil, nil
	return g
}

// spliceRows writes one edge kind's rows for BuildSpliced: c is the prior
// kind, ord its sorted unique fresh entries into pairs, touched the marks
// of the reused vertices that cannot be copied as a block, and size the
// exact id count of the result.
func spliceRows(c *csr, pairs, ord, newToOld, oldToNew, touched []int32, size int) csr {
	if size == 0 {
		return csr{}
	}
	if size > maxArenaEntries {
		panic(fmt.Sprintf("graph: edge arena needs %d entries, max %d", size, maxArenaEntries))
	}
	n := len(newToOld)
	off := make([]int32, n+1)
	adj := make([]int32, size)
	poff, padj := c.off, c.adj // poff is nil when every prior row is empty
	w, f := int32(0), 0
	for i := 0; i < n; {
		o := newToOld[i]
		if o >= 0 && touched[i] == 0 {
			j := i + 1
			for j < n && newToOld[j] == o+int32(j-i) && touched[j] == 0 {
				j++
			}
			if poff == nil {
				for ; i < j; i++ {
					off[i] = w
				}
				continue
			}
			lo, hi := poff[o], poff[o+int32(j-i)]
			delta := w - lo
			for t, s := range poff[o : o+int32(j-i)] {
				off[i+t] = s + delta
			}
			for x, v := range padj[lo:hi] {
				adj[w+int32(x)] = oldToNew[v]
			}
			w += hi - lo
			i = j
			continue
		}
		// One row merged from the mapped prior row, if any, and the fresh
		// entries of i.
		off[i] = w
		fe := f
		for fe < len(ord) && pairs[ord[fe]] == int32(i) {
			fe++
		}
		if o >= 0 && poff != nil {
			for _, x := range padj[poff[o]:poff[o+1]] {
				m := oldToNew[x]
				if m < 0 {
					continue
				}
				for ; f < fe && pairs[ord[f]^1] < m; f++ {
					adj[w] = pairs[ord[f]^1]
					w++
				}
				adj[w] = m
				w++
			}
		}
		for ; f < fe; f++ {
			adj[w] = pairs[ord[f]^1]
			w++
		}
		i++
	}
	off[n] = w
	return csr{off: off, adj: adj}
}
