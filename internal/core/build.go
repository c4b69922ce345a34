// Package core assembles the full layout-decomposition flow of the DAC'14
// paper (Fig. 2): decomposition-graph construction from polygonal layout
// features (conflict edges, projection-based stitch candidates,
// color-friendly pairs), graph division, per-component color assignment
// with one of the paper's four engines, and mask output with independent
// verification.
package core

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mpl/internal/geom"
	"mpl/internal/graph"
	"mpl/internal/layout"
	"mpl/internal/spatial"
)

// Fragment is one vertex of the decomposition graph: a piece of a layout
// feature (the whole feature when no stitch splits it).
type Fragment struct {
	// Feature is the index of the owning feature in the layout.
	Feature int
	// Shape is the fragment geometry.
	Shape geom.Polygon
}

// BuildTiming reports per-stage wall-clock times of one graph build
// (DESIGN.md §3). In a parallel build the Split and Edges stages run on the
// worker pool; Merge is the serial deterministic assembly.
type BuildTiming struct {
	// Split is the stitch-candidate stage: the one neighbour join over the
	// layout's rectangles, each wire's conflicting neighbours gathered from
	// its pairs, then features → fragments plus intra-feature stitch pair
	// detection.
	Split time.Duration
	// Edges is conflict/color-friendly edge discovery: each cross-feature
	// rectangle pair the join found expands to its two features' fragment
	// pairs, which the exact polygon gap classifies.
	Edges time.Duration
	// Merge is the serial assembly: fragment numbering, stitch-edge
	// insertion, and the drain of the per-strip edge lists into the CSR
	// build.
	Merge time.Duration
	// Total is the end-to-end BuildGraph wall clock; it exceeds
	// Split+Edges+Merge only by input validation and bookkeeping.
	Total time.Duration
}

// BuildStats summarizes a constructed decomposition graph.
type BuildStats struct {
	Features      int
	Fragments     int
	ConflictEdges int
	StitchEdges   int
	FriendEdges   int
	// Workers is the worker count the build actually used (≥ 1).
	Workers int
	// Timing is the per-stage wall clock of this build. It is the one part
	// of BuildStats that varies run to run; everything else is identical at
	// any worker count.
	Timing BuildTiming
}

// BuildOptions controls decomposition-graph construction.
type BuildOptions struct {
	// MinS is the minimum coloring distance; two fragments of different
	// features within (≤) this distance receive a conflict edge. Zero
	// derives the paper's value from the layout process and K.
	MinS int
	// K is the mask count used to derive MinS when MinS is zero.
	K int
	// DisableStitches turns off stitch candidate generation.
	DisableStitches bool
	// Workers is the number of goroutines sharding the split and
	// edge-generation stages; 0 or 1 means serial (matching
	// division.Options.Workers). The constructed graph is identical —
	// fragment order, adjacency order, stats — at any worker count, so
	// Workers is purely a wall-clock knob.
	Workers int
}

// Graph couples the decomposition graph with fragment geometry.
type Graph struct {
	G         *graph.Graph
	Fragments []Fragment
	Stats     BuildStats
	MinS      int
	HalfPitch int
}

// BuildGraph constructs the decomposition graph of a layout (Definition 1):
// one vertex per fragment, conflict edges between fragments of different
// features within MinS, stitch edges between touching fragments of one
// feature, and color-friendly edges (Definition 2) between fragments of
// different features at distance in (MinS, MinS+hp).
func BuildGraph(l *layout.Layout, opts BuildOptions) (*Graph, error) {
	return BuildGraphContext(context.Background(), l, opts)
}

// BuildGraphContext is BuildGraph with cooperative cancellation and optional
// parallelism (BuildOptions.Workers). The build is sharded: one strip-sweep
// join finds every pair of rectangles within mins+hp with strips as the
// shard unit, features are split into stitch fragments on a bounded worker
// pool, the join's pairs are classified into conflict/friend edges strip by
// strip, and a serial merge replays everything in deterministic order, so
// the resulting graph is identical to a serial build. Unlike
// DecomposeContext — which degrades rather than fails — a half-built graph
// has no degraded form, so cancellation mid-build returns a wrapped ctx
// error and no graph.
func BuildGraphContext(ctx context.Context, l *layout.Layout, opts BuildOptions) (*Graph, error) {
	t0 := time.Now()
	if err := l.Validate(); err != nil {
		return nil, err
	}
	k := opts.K
	if k == 0 {
		k = 4
	}
	minS := opts.MinS
	if minS == 0 {
		minS = l.Process.MinColoringDistance(k)
	}
	if minS <= 0 {
		return nil, fmt.Errorf("core: non-positive minimum coloring distance %d", minS)
	}
	hp := l.Process.HalfPitch

	workers := opts.Workers
	if workers <= 1 {
		workers = 1
	}
	if max := runtime.GOMAXPROCS(0); workers > 4*max {
		// More goroutines than 4× the scheduler width only adds churn; the
		// output is identical anyway, so clamp silently.
		workers = 4 * max
		if workers < 1 {
			workers = 1
		}
	}

	b := &builder{l: l, opts: opts, minS: minS, hp: hp, workers: workers}

	// Stage 1 (parallel over strips, then over features): the neighbour
	// join over the layout's rectangles, then stitch candidate generation —
	// split features into fragment pieces and detect intra-feature stitch
	// pairs.
	tSplit := time.Now()
	if err := b.splitFeatures(ctx); err != nil {
		return nil, err
	}
	timing := BuildTiming{Split: time.Since(tSplit)}

	// Stage 2 (serial merge): number fragments in feature order and record
	// stitch pairs; fragment numbering matches a feature-by-feature serial
	// build.
	tMerge := time.Now()
	if err := b.assembleFragments(); err != nil {
		return nil, err
	}
	timing.Merge += time.Since(tMerge)

	// Stage 3 (parallel over strips): conflict and color-friendly edge
	// discovery. Each cross-feature rectangle pair of stage 1's join expands
	// to its two features' fragment pairs; the join reported it once, in
	// the strip of its reference point, so each strip's worker writes only
	// that strip's output slots.
	tEdges := time.Now()
	if err := b.discoverEdges(ctx); err != nil {
		return nil, err
	}
	timing.Edges = time.Since(tEdges)

	// Stage 4 (serial merge): drain the per-strip edge lists into the CSR
	// builder and materialize the graph in one two-pass count-then-fill
	// build. The builder sorts and compacts every adjacency row, so the
	// graph is a pure function of the edge *set* — independent of strip
	// geometry, scan order, shard boundaries, and worker count. Incremental
	// rebuilds (ApplyEdits) rely on exactly this: they splice the prior
	// graph's sorted rows with freshly discovered pairs
	// (Builder.BuildSpliced) and land on the same canonical form as a
	// from-scratch build.
	tMerge = time.Now()
	b.finishGraph()
	timing.Merge += time.Since(tMerge)

	timing.Total = time.Since(t0)
	b.stats.Workers = workers
	b.stats.Timing = timing
	return &Graph{G: b.g, Fragments: b.frags, Stats: b.stats, MinS: minS, HalfPitch: hp}, nil
}

// builder carries the intermediate state of one staged graph build.
type builder struct {
	l       *layout.Layout
	opts    BuildOptions
	minS    int
	hp      int
	workers int

	// Stage 1 output: the layout's rectangles in feature order with their
	// features; per join strip the cross-feature rectangle pairs as flat
	// (a, c) ids, those within mins in near and the rest (within mins+hp)
	// in far; the pieces of each feature; and per shard chunk the touching
	// (gap 0) piece pairs as flat (feature, i, j) triples of local piece
	// indices, in feature order within the chunk.
	rects       []geom.Rect
	owner       []int32
	near, far   [][]int32
	pieces      [][]geom.Polygon
	stitchShard [][]int32

	// Stage 2 output: the fragments of feature fi are
	// frags[start[fi]:start[fi+1]].
	frags []Fragment
	start []int32
	bld   *graph.Builder
	g     *graph.Graph
	stats BuildStats

	// Stage 3 output, indexed by join strip: flat (u,v) conflict and
	// color-friendly pairs. Each strip is written by exactly one worker;
	// the merge drains them into the CSR builder, which sorts and compacts
	// — so strip boundaries never show through in the finished graph.
	confShard   [][]int32
	friendShard [][]int32
}

// buildCancelled wraps the context error so callers can errors.Is it while
// seeing which stage was abandoned.
func buildCancelled(ctx context.Context, stage string) error {
	return fmt.Errorf("core: graph construction cancelled during %s: %w", stage, context.Cause(ctx))
}

// shardPlan returns the chunk size and chunk count runSharded will use over
// [0, n), so stages that stage per-chunk output (the streamed edge lists)
// can size their slots up front.
func (b *builder) shardPlan(n int) (chunk, nChunks int) {
	chunk = n/(b.workers*4) + 1
	if chunk < 32 {
		chunk = 32
	}
	return chunk, (n + chunk - 1) / chunk
}

// runSharded executes fn over [0, n) in contiguous chunks of the given
// length pulled from an atomic cursor by min(workers, needed) goroutines.
// fn receives the chunk index alongside the range, so a stage can write
// per-chunk output slots without coordination. Chunk processing order is
// nondeterministic but every output is indexed by its input position, so
// results are deterministic. Returns promptly with ctx's error when
// cancelled mid-build.
func (b *builder) runSharded(ctx context.Context, n, chunk int, stage string, fn func(ci, lo, hi int)) error {
	if n == 0 {
		return nil
	}
	workers := b.workers
	nChunks := (n + chunk - 1) / chunk
	if workers > nChunks {
		workers = nChunks
	}
	if workers == 1 {
		for ci := 0; ci < nChunks; ci++ {
			if ctx.Err() != nil {
				return buildCancelled(ctx, stage)
			}
			lo := ci * chunk
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			fn(ci, lo, hi)
		}
		return nil
	}
	var cursor atomic.Int64
	var stopped atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if stopped.Load() {
					return
				}
				if ctx.Err() != nil {
					stopped.Store(true)
					return
				}
				c := int(cursor.Add(1)) - 1
				if c >= nChunks {
					return
				}
				lo := c * chunk
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				fn(c, lo, hi)
			}
		}()
	}
	wg.Wait()
	if ctx.Err() != nil {
		return buildCancelled(ctx, stage)
	}
	return nil
}

// splitFeatures runs stage 1: the neighbour join over the layout's
// rectangles at mins+hp, sharded by strip, then per-feature stitch
// splitting plus local stitch-pair detection, sharded across the worker
// pool. The pairs within mins give the wires their conflicting
// neighbours, whose projections are the forbidden spans; all of the pairs
// are kept for stage 3. Output depends only on the feature index, never on
// the shard that computed it.
func (b *builder) splitFeatures(ctx context.Context) error {
	nf, nr := len(b.l.Features), b.l.RectCount()
	b.rects = make([]geom.Rect, 0, nr)
	b.owner = make([]int32, 0, nr)
	for fi, f := range b.l.Features {
		for _, r := range f.Rects {
			b.rects = append(b.rects, r)
			b.owner = append(b.owner, int32(fi))
		}
	}
	join := spatial.NewJoin(b.rects, b.minS+b.hp)
	b.near = make([][]int32, join.Strips())
	b.far = make([][]int32, join.Strips())
	minSq := int64(b.minS) * int64(b.minS)
	if err := b.runSharded(ctx, join.Strips(), 1, "neighbour join", func(s, _, _ int) {
		var near, far []int32
		join.Sweep(s, func(a, c int32) {
			switch {
			case b.owner[a] == b.owner[c]:
			case geom.GapSq(b.rects[a], b.rects[c]) <= minSq:
				near = append(near, a, c)
			default:
				far = append(far, a, c)
			}
		})
		b.near[s], b.far[s] = near, far
	}); err != nil {
		return err
	}

	b.pieces = make([][]geom.Polygon, nf)
	if b.opts.DisableStitches {
		whole := slices.Clone(b.l.Features)
		for fi := range whole {
			b.pieces[fi] = whole[fi : fi+1 : fi+1]
		}
		return nil
	}
	wire := make([]bool, nf)
	for fi, f := range b.l.Features {
		wire[fi] = len(f.Rects) == 1
	}
	chunk, nChunks := b.shardPlan(nf)
	b.stitchShard = make([][]int32, nChunks)
	splitter := newStitchSplitter(b.l.Process.MinWidth, b.rects, b.owner, wire, b.near)
	return b.runSharded(ctx, nf, chunk, "stitch splitting", func(ci, lo, hi int) {
		buf := newSplitBuf(hi - lo)
		var stitches []int32
		for fi := lo; fi < hi; fi++ {
			ps := splitter.split(buf, b.l.Features[fi], splitter.neighbours(fi))
			b.pieces[fi] = ps
			// Touching pieces of one feature are stitch candidates; record
			// local pairs now so the merge only replays them.
			for i := 0; i < len(ps); i++ {
				for j := i + 1; j < len(ps); j++ {
					if geom.GapSqPoly(ps[i], ps[j]) == 0 {
						stitches = append(stitches, int32(fi), int32(i), int32(j))
					}
				}
			}
		}
		b.stitchShard[ci] = stitches
	})
}

// assembleFragments runs stage 2: deterministic fragment numbering in
// feature order and stitch-pair staging into the CSR builder. The fragments
// of feature fi are numbered contiguously from start[fi], so a local piece
// index is an offset from there. It returns an error — instead of letting
// graph.NewBuilder panic — when the fragment count exceeds the int32
// vertex-id capacity, so million-feature inputs that overshoot fail with a
// diagnosis rather than silent id truncation.
func (b *builder) assembleFragments() error {
	total := 0
	for _, ps := range b.pieces {
		total += len(ps)
	}
	if total > graph.MaxVertices {
		return fmt.Errorf("core: layout splits into %d fragments, exceeding the graph capacity of %d vertices", total, graph.MaxVertices)
	}
	b.frags = make([]Fragment, 0, total)
	start := make([]int32, len(b.pieces)+1)
	for fi, ps := range b.pieces {
		start[fi] = int32(len(b.frags))
		for _, p := range ps {
			b.frags = append(b.frags, Fragment{Feature: fi, Shape: p})
		}
	}
	start[len(b.pieces)] = int32(len(b.frags))
	b.start = start
	b.pieces = nil
	b.bld = graph.NewBuilder(len(b.frags))
	b.stats = BuildStats{Features: len(b.l.Features), Fragments: len(b.frags)}
	for _, tri := range b.stitchShard {
		for k := 0; k < len(tri); k += 3 {
			s := int(start[tri[k]])
			b.bld.AddStitch(s+int(tri[k+1]), s+int(tri[k+2]))
		}
	}
	b.stitchShard = nil
	return nil
}

// discoverEdges runs stage 3: conflict and color-friendly edge discovery
// from stage 1's join, sharded by strip. A fragment lies inside its
// feature's rectangles, so every fragment pair within mins+hp belongs to a
// feature pair with some rectangle pair within mins+hp: expanding each
// such rectangle pair to its two features' fragment pairs and keeping
// those whose exact polygon gap qualifies finds the whole edge set. A
// fragment pair two rectangle pairs reach is found twice; the CSR build
// compacts the duplicate, as it sorts every row, so neither the strip
// boundaries nor the scan order reach the graph.
func (b *builder) discoverEdges(ctx context.Context) error {
	minSq := int64(b.minS) * int64(b.minS)
	radius := b.minS + b.hp
	friendOuter := int64(radius) * int64(radius)
	b.confShard = make([][]int32, len(b.near))
	b.friendShard = make([][]int32, len(b.near))
	return b.runSharded(ctx, len(b.near), 1, "edge generation", func(s, _, _ int) {
		var conf, friend []int32
		for _, pairs := range [2][]int32{b.near[s], b.far[s]} {
			for k := 0; k < len(pairs); k += 2 {
				fa, fc := b.owner[pairs[k]], b.owner[pairs[k+1]]
				for u := b.start[fa]; u < b.start[fa+1]; u++ {
					for v := b.start[fc]; v < b.start[fc+1]; v++ {
						d := geom.GapSqPoly(b.frags[u].Shape, b.frags[v].Shape)
						switch {
						case d <= minSq:
							conf = append(conf, u, v)
						case d < friendOuter:
							friend = append(friend, u, v)
						}
					}
				}
			}
		}
		b.near[s], b.far[s] = nil, nil
		b.confShard[s], b.friendShard[s] = conf, friend
	})
}

// finishGraph runs stage 4: drain the per-strip edge lists into the CSR
// builder and run the two-pass count-then-fill build. Transient fill
// cursors come from the shared scratch pool; the offsets and id arrays
// belong to the finished graph. Edge-kind totals come from the builder's
// compacted rows, so they equal the per-insert tallies of the old mutable
// path by construction.
func (b *builder) finishGraph() {
	var nc, nf int
	for ci := range b.confShard {
		nc += len(b.confShard[ci])
		nf += len(b.friendShard[ci])
	}
	b.bld.Grow(nc, 0, nf)
	for ci := range b.confShard {
		// Each shard is dropped as it drains, so peak heap holds one copy of
		// the edge set plus the in-progress merge buffer — not two full
		// copies for the whole drain.
		b.bld.AddConflictPairs(b.confShard[ci])
		b.confShard[ci] = nil
		b.bld.AddFriendPairs(b.friendShard[ci])
		b.friendShard[ci] = nil
	}
	b.confShard, b.friendShard = nil, nil
	sc := sharedScratch.Get()
	b.g = b.bld.Build(sc)
	sharedScratch.Put(sc)
	b.bld = nil
	b.stats.ConflictEdges = b.g.ConflictEdgeCount()
	b.stats.StitchEdges = b.g.StitchEdgeCount()
	b.stats.FriendEdges = b.g.FriendEdgeCount()
}

// maxStitchesPerFeature caps the stitch candidates of one feature: long
// wires rarely profit from more, and the cap keeps vertex counts close to
// the paper's "stitch candidate" regime.
const maxStitchesPerFeature = 2

// stitchSplitter implements projection-based stitch candidate generation
// (DESIGN.md §5): a wire-like rectangle may be split at positions not
// covered by the projection of any conflicting neighbor, keeping at least
// minSeg of material on each side. It holds each wire's conflicting
// neighbours, gathered from a neighbour join's rectangle pairs, as one CSR
// array of rectangle ids.
type stitchSplitter struct {
	minSeg int
	rects  []geom.Rect // the join's rectangles
	off    []int32     // slot k's neighbours are nbrs[off[k]:off[k+1]]
	nbrs   []int32
}

// newStitchSplitter gathers the conflicting neighbours of the wires among
// len(wire) feature slots from pairs, flat (a, c) pairs of rectangles of
// different slots within minS: each rectangle is a neighbour of the
// other's slot when wire marks that slot as one split will consult. owner
// maps each of rects to its slot. The neighbours are grouped by slot in two passes:
// count each slot's neighbours into off[k+1], prefix-sum them into start
// offsets, fill, then shift the advanced offsets back by one. split sorts
// a wire's spans, so the order neighbours come in does not matter.
func newStitchSplitter(minSeg int, rects []geom.Rect, owner []int32, wire []bool, pairs [][]int32) *stitchSplitter {
	n := len(wire)
	s := &stitchSplitter{minSeg: minSeg, rects: rects, off: make([]int32, n+1)}
	for _, ps := range pairs {
		for i := 0; i < len(ps); i++ {
			if k := owner[ps[i]]; wire[k] {
				s.off[k+1]++
			}
		}
	}
	for k := 1; k <= n; k++ {
		s.off[k] += s.off[k-1]
	}
	s.nbrs = make([]int32, s.off[n])
	for _, ps := range pairs {
		for i := 0; i < len(ps); i++ {
			if k := owner[ps[i]]; wire[k] {
				s.nbrs[s.off[k]] = ps[i^1]
				s.off[k]++
			}
		}
	}
	copy(s.off[1:], s.off[:n])
	s.off[0] = 0
	return s
}

// neighbours returns the conflicting neighbours of slot k's wire.
func (s *stitchSplitter) neighbours(k int) []int32 { return s.nbrs[s.off[k]:s.off[k+1]] }

// span is a forbidden projection interval [lo, hi) along a wire.
type span struct{ lo, hi int }

// splitBuf is what stitchSplitter.split writes into: the fragment polygons
// and their rectangles are carved from two arenas as capped windows, so no
// later append to one piece can clobber its neighbour, and the
// forbidden-interval and cut buffers are reused from feature to feature.
// One buffer serves one goroutine; the fresh build gives each shard chunk
// its own, ApplyEdits one per call.
type splitBuf struct {
	polys     []geom.Polygon
	rects     []geom.Rect
	chunk     int // arena chunk length
	forbidden []span
	cuts      []int
}

// newSplitBuf returns a buffer whose arena chunks hold one piece per
// feature of a run of the given length.
func newSplitBuf(features int) *splitBuf { return &splitBuf{chunk: max(features, 16)} }

// carve hands out the next n elements of *arena as a capped window,
// starting a fresh chunk when the current one is short. Earlier windows
// keep pointing into the chunk they came from.
func carve[T any](arena *[]T, n, chunk int) []T {
	a := *arena
	if cap(a)-len(a) < n {
		a = make([]T, 0, max(n, chunk))
	}
	k := len(a)
	*arena = a[:k+n]
	return a[k : k+n : k+n]
}

// whole returns f as the single piece of its feature.
func (b *splitBuf) whole(f geom.Polygon) []geom.Polygon {
	out := carve(&b.polys, 1, b.chunk)
	out[0] = f
	return out
}

// split returns the fragment polygons of one feature: single-rectangle
// wire features may be divided at stitch candidates; everything else stays
// whole. (Stitches inside complex polygons exist in practice but the
// paper's stitch model — one candidate per uncovered projection interval —
// is defined on wires; see DESIGN.md §5.) nbrs holds the ids of the
// wire's conflicting neighbor rectangles in s.rects. The pieces live in
// buf's arenas.
func (s *stitchSplitter) split(buf *splitBuf, f geom.Polygon, nbrs []int32) []geom.Polygon {
	if len(f.Rects) != 1 {
		return buf.whole(f)
	}
	r := f.Rects[0]
	horizontal := r.Width() >= r.Height()
	length := r.Width()
	if !horizontal {
		length = r.Height()
	}
	if length < 2*s.minSeg {
		return buf.whole(f)
	}

	// Forbidden intervals: projections of conflicting neighbor rectangles,
	// expanded by minSeg so a stitch keeps clearance from the region where
	// the neighbor actually constrains the wire.
	forbidden := buf.forbidden[:0]
	for _, id := range nbrs {
		nr := s.rects[id]
		if horizontal {
			forbidden = append(forbidden, span{nr.X0 - s.minSeg, nr.X1 + s.minSeg})
		} else {
			forbidden = append(forbidden, span{nr.Y0 - s.minSeg, nr.Y1 + s.minSeg})
		}
	}
	buf.forbidden = forbidden

	lo, hi := r.X0, r.X1
	if !horizontal {
		lo, hi = r.Y0, r.Y1
	}
	// Candidate window: stitches must leave minSeg on both sides.
	winLo, winHi := lo+s.minSeg, hi-s.minSeg
	if winLo >= winHi {
		return buf.whole(f)
	}
	// Intervals with equal lo may land in either order: the first of them
	// decides whether a gap ends at lo, and the cursor leaves the group at
	// the maximum of their hi either way, so the walk below is unchanged.
	slices.SortFunc(forbidden, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })

	// Walk the window collecting allowed gaps; one stitch per gap midpoint.
	cuts := buf.cuts[:0]
	cursor := winLo
	emit := func(gapLo, gapHi int) {
		if len(cuts) >= maxStitchesPerFeature {
			return
		}
		if gapHi > gapLo {
			cuts = append(cuts, (gapLo+gapHi)/2)
		}
	}
	for _, ivl := range forbidden {
		if ivl.lo > cursor {
			gHi := min(ivl.lo, winHi)
			emit(cursor, gHi)
		}
		if ivl.hi > cursor {
			cursor = ivl.hi
		}
		if cursor >= winHi {
			break
		}
	}
	if cursor < winHi {
		emit(cursor, winHi)
	}
	buf.cuts = cuts
	if len(cuts) == 0 {
		return buf.whole(f)
	}
	slices.Sort(cuts)
	kept := cuts[:0]
	prev := lo
	for _, c := range cuts {
		if c <= prev || c >= hi {
			continue
		}
		kept = append(kept, c)
		prev = c
	}

	out := carve(&buf.polys, len(kept)+1, buf.chunk)
	rs := carve(&buf.rects, len(kept)+1, buf.chunk)
	prev = lo
	for k := range rs {
		end := hi
		if k < len(kept) {
			end = kept[k]
		}
		if horizontal {
			rs[k] = geom.Rect{X0: prev, Y0: r.Y0, X1: end, Y1: r.Y1}
		} else {
			rs[k] = geom.Rect{X0: r.X0, Y0: prev, X1: r.X1, Y1: end}
		}
		out[k] = geom.Polygon{Rects: rs[k : k+1 : k+1]}
		prev = end
	}
	return out
}
