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
// Build: ApplyEdits' dirty-region rebuild feeds remapped prior pairs and
// fresh ones through a Builder like a scratch build, and Subgraph copies
// filtered rows into arrays of its own.

import (
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
// build state (fill cursors, pair buffers) from; *pipeline.Scratch
// satisfies it. A nil arena — or a typed-nil one, since the Scratch methods
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
	// leased is the arena Reserve took the pair buffers from; Build
	// returns them to it.
	leased Int32Arena
}

// NewBuilder returns a Builder for a graph with n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 || n > MaxVertices {
		panic(fmt.Sprintf("graph: vertex count %d outside [0, %d]", n, MaxVertices))
	}
	return &Builder{n: n}
}

// N returns the vertex count the builder was created with.
func (b *Builder) N() int { return b.n }

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

// Reserve is Grow with the pair buffers leased from sc: Build hands them
// back, so a caller that builds a graph of similar size on every request
// (ApplyEdits) stops reallocating them. Pairs added so far are kept.
func (b *Builder) Reserve(sc Int32Arena, conf, stit, friend int) {
	if sc == nil {
		b.Grow(conf, stit, friend)
		return
	}
	lease := func(cur []int32, extra int) []int32 {
		return append(sc.Int32s(len(cur) + extra)[:0], cur...)
	}
	b.conf, b.stit, b.friend = lease(b.conf, conf), lease(b.stit, stit), lease(b.friend, friend)
	b.leased = sc
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
	b.release(b.conf)
	b.conf = nil
	g.stit, g.nStit = csrRows(b.n, b.stit, sc)
	b.release(b.stit)
	b.stit = nil
	g.friend, g.nFriend = csrRows(b.n, b.friend, sc)
	b.release(b.friend)
	b.friend = nil
	return g
}

// release returns a consumed pair buffer to the arena Reserve leased it
// from, if any.
func (b *Builder) release(pairs []int32) {
	if b.leased != nil {
		b.leased.PutInt32s(pairs)
	}
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
		// Pairs emitted in ascending (u, v) order — a remapped canonical
		// graph, as ApplyEdits feeds it — land already sorted and unique;
		// checking is one linear pass, sorting and compacting are not.
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
