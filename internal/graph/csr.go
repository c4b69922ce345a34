package graph

// Arena-backed CSR (compressed sparse row) construction. A Builder collects
// raw undirected edge pairs in flat append-only buffers — no per-insert
// deduplication, no per-vertex allocation — and Build materializes the
// decomposition graph in two passes per edge kind:
//
//	count: one sweep over the pairs tallies every vertex's degree, and a
//	       prefix sum turns the tallies into row offsets;
//	fill:  a second sweep scatters both directions of every pair into one
//	       contiguous int32 arena at those offsets.
//
// Each row is then sorted and compacted in place (sort + compact replaces
// the per-insert `contains` scan of the mutable Add* path, which went
// quadratic on hub vertices), so duplicate insertions cost O(log deg)
// amortized instead of O(deg). The resulting Graph stores its adjacency as
// three arenas — one per edge kind, struct-of-arrays — with the [][]int32
// row headers pointing into them.
//
// The row headers are also the mutable-adjacency shim: every view is a
// full-capacity (three-index) subslice, so appending to a row — what
// Graph.AddConflict and friends do — reallocates that one row out of the
// arena instead of bleeding into its neighbor. The arena itself is never
// mutated after Build; a graph that was never edited keeps every row
// contiguous. ApplyEdits' dirty-region rebuild no longer edits graphs: it
// feeds remapped prior pairs and fresh ones through a Builder like a
// scratch build, which leaves Subgraph as the shim's last non-test caller.

import (
	"fmt"
	"math"
	"slices"
)

// MaxVertices is the largest vertex count a Graph can hold: vertex ids are
// int32, so anything beyond 2^31−1 would overflow silently. New, AddVertex
// and NewBuilder enforce it; internal/core checks fragment counts against it
// before building and returns an error instead of panicking.
const MaxVertices = math.MaxInt32

// maxArenaEntries bounds one edge kind's directed adjacency arena (two
// entries per undirected edge). Row offsets are int32, so the arena must
// stay addressable by them.
const maxArenaEntries = math.MaxInt32

// Int32Arena is the slice-recycling surface a Builder can lease transient
// build state (degree counters, row offsets) from; *pipeline.Scratch
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

func (b *Builder) checkPair(u, v int32) {
	if u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at %d", u))
	}
}

// AddConflict records an undirected conflict edge. Duplicates are fine.
func (b *Builder) AddConflict(u, v int) {
	b.checkPair(int32(u), int32(v))
	b.conf = append(b.conf, int32(u), int32(v))
}

// AddStitch records an undirected stitch edge.
func (b *Builder) AddStitch(u, v int) {
	b.checkPair(int32(u), int32(v))
	b.stit = append(b.stit, int32(u), int32(v))
}

// AddFriend records an undirected color-friendly edge.
func (b *Builder) AddFriend(u, v int) {
	b.checkPair(int32(u), int32(v))
	b.friend = append(b.friend, int32(u), int32(v))
}

// AddConflictPairs bulk-appends flat (u,v) pairs — the streaming build's
// per-shard edge lists drain through here without re-boxing into ints.
func (b *Builder) AddConflictPairs(pairs []int32) {
	b.validatePairs(pairs)
	b.conf = append(b.conf, pairs...)
}

// AddStitchPairs bulk-appends flat stitch (u,v) pairs.
func (b *Builder) AddStitchPairs(pairs []int32) {
	b.validatePairs(pairs)
	b.stit = append(b.stit, pairs...)
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
		b.checkPair(pairs[i], pairs[i+1])
	}
}

// Build materializes the graph. sc, when non-nil, lends the transient
// degree/offset arrays (they are returned before Build exits); the edge
// arenas themselves belong to the returned Graph and are never pooled.
// The builder must not be reused afterwards.
func (b *Builder) Build(sc Int32Arena) *Graph {
	g := &Graph{n: b.n}
	var nc, ns, nf int
	// Each pair buffer is released as soon as its arena is materialized:
	// holding all three alongside all three arenas would double peak heap on
	// million-feature builds (and, on a GC-pressured machine, the collector's
	// marking time with it).
	g.conf, nc = csrRows(b.n, b.conf, sc)
	b.release(b.conf)
	b.conf = nil
	g.stit, ns = csrRows(b.n, b.stit, sc)
	b.release(b.stit)
	b.stit = nil
	g.friend, nf = csrRows(b.n, b.friend, sc)
	b.release(b.friend)
	b.friend = nil
	g.nConf, g.nStit, g.nFriend = nc, ns, nf
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
// the row views plus the number of unique undirected edges.
func csrRows(n int, pairs []int32, sc Int32Arena) ([][]int32, int) {
	rows := make([][]int32, n)
	if len(pairs) == 0 {
		return rows, 0
	}
	if len(pairs) > maxArenaEntries {
		panic(fmt.Sprintf("graph: edge arena needs %d entries, max %d", len(pairs), maxArenaEntries))
	}

	// Pass 1: count. off[v+1] accumulates deg(v), then a prefix sum turns
	// counts into row start offsets.
	var off []int32
	if sc != nil {
		off = sc.Int32s(n + 1)
		defer sc.PutInt32s(off)
	} else {
		off = make([]int32, n+1)
	}
	for i := 0; i < len(pairs); i += 2 {
		off[pairs[i]+1]++
		off[pairs[i+1]+1]++
	}
	sum := int32(0)
	for v := range off {
		sum += off[v]
		off[v] = sum
	}

	// Pass 2: fill. cursor[v] (reusing off, shifted) walks each row while
	// both directions of every pair scatter into the shared arena.
	arena := make([]int32, len(pairs))
	for i := 0; i < len(pairs); i += 2 {
		u, v := pairs[i], pairs[i+1]
		arena[off[u]] = v
		off[u]++
		arena[off[v]] = u
		off[v]++
	}
	// off[v] is now the END of row v (and the start of row v+1): recover
	// starts from the previous row's end.
	unique := 0
	end := off
	start := int32(0)
	for v := 0; v < n; v++ {
		row := arena[start:end[v]]
		start = end[v]
		if len(row) == 0 {
			continue
		}
		// Pairs emitted in ascending (u, v) order — a remapped canonical
		// graph, as ApplyEdits feeds it — land already sorted and unique;
		// checking is one linear pass, sorting and compacting are not.
		if !strictlyIncreasing(row) {
			slices.Sort(row)
			row = slices.Compact(row)
		}
		unique += len(row)
		// Full-capacity view: an append (mutable shim) reallocates the row
		// instead of clobbering the next row's slack.
		rows[v] = row[:len(row):len(row)]
	}
	return rows, unique / 2
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
