package core

// Incremental (ECO) decomposition: ApplyEdits re-decomposes an edited layout
// in time proportional to the dirty region instead of re-running the whole
// build → division → solve pipeline (DESIGN.md §6).
//
// The correctness contract is observable equivalence: for deterministic
// engines (Linear, SDP+Greedy, SDP+Backtrack — everything except the
// wall-clock-budgeted ILP) an uncancelled ApplyEdits returns exactly the
// Result a from-scratch Decompose of the edited layout would return — same
// colors, same conflict/stitch counts, same graph. The proof rests on three
// invariants:
//
//  1. Canonical graphs. BuildGraph emits adjacency lists sorted ascending,
//     so a decomposition graph is a pure function of its edge set — never
//     of join strip geometry or scan order. The index maps are monotonic,
//     so a reused fragment's prior row, mapped and stripped of lost
//     neighbors, is still sorted; ApplyEdits therefore splices the prior
//     rows with the freshly discovered pairs (graph.Builder.BuildSpliced)
//     and lands on the byte-identical graph a scratch build would produce.
//  2. Locality of construction. A feature's fragmentation depends only on
//     neighbors within MinS (projection intervals), and an edge only on the
//     geometry of its two endpoints. Features outside the dirty region keep
//     their fragments, and pairs of such features keep their edges.
//  3. Component independence. The division pipeline solves each connected
//     component of the (conflict ∪ stitch) graph in isolation, so a
//     component whose induced subgraph is unchanged — same vertices in the
//     same relative order, same edges, no vertex lost to the edit — must
//     receive the same colors from the same deterministic engine. Those
//     components keep their prior colors; only the rest are re-solved.

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"mpl/internal/coloring"
	"mpl/internal/division"
	"mpl/internal/geom"
	"mpl/internal/graph"
	"mpl/internal/layout"
	"mpl/internal/pipeline"
	"mpl/internal/spatial"
)

// EditOp selects the kind of one layout edit.
type EditOp uint8

// The three ECO operations. Feature indices follow the usual editing
// convention: each op addresses the layout as left by the ops before it —
// EditRemove shifts later features down, EditAdd appends at the end.
const (
	// EditAdd appends Edit.Shape as a new feature.
	EditAdd EditOp = iota
	// EditRemove deletes feature Edit.Feature.
	EditRemove
	// EditMove translates feature Edit.Feature by (Edit.DX, Edit.DY).
	EditMove
)

// String implements fmt.Stringer.
func (op EditOp) String() string {
	switch op {
	case EditAdd:
		return "add"
	case EditRemove:
		return "remove"
	case EditMove:
		return "move"
	}
	return fmt.Sprintf("EditOp(%d)", int(op))
}

// Edit is one ECO operation on a layout.
type Edit struct {
	// Op selects the operation.
	Op EditOp
	// Feature is the target feature index (EditRemove, EditMove).
	Feature int
	// Shape is the added feature geometry (EditAdd).
	Shape geom.Polygon
	// DX, DY is the translation in database units (EditMove).
	DX, DY int
}

// EditStats reports how much work one ApplyEdits call reused versus redid.
type EditStats struct {
	// Edits is the number of operations applied.
	Edits int
	// SuspectFeatures counts unedited features close enough to an edit
	// (within MinS) that their stitch fragmentation had to be re-derived
	// and compared against the prior build.
	SuspectFeatures int
	// RebuiltFeatures counts features whose fragments were rebuilt: the
	// edited features plus every suspect whose fragmentation changed.
	RebuiltFeatures int
	// ReusedFragments and RebuiltFragments partition the new graph's
	// vertices by provenance.
	ReusedFragments  int
	RebuiltFragments int
	// Components is the connected-component count of the post-edit graph;
	// ResolvedComponents of them intersected the dirty region and were
	// re-solved (ResolvedFragments vertices in total), CopiedComponents
	// kept their prior colors verbatim.
	Components         int
	ResolvedComponents int
	CopiedComponents   int
	ResolvedFragments  int
	// BuildTime is the incremental graph rebuild; SolveTime is division
	// plus color assignment over the dirty components.
	BuildTime time.Duration
	SolveTime time.Duration
}

// EditLayout returns the layout obtained by applying the edits in order,
// without decomposing anything. The input layout is not modified. It is the
// pure layout half of ApplyEdits.
func EditLayout(l *layout.Layout, edits []Edit) (*layout.Layout, error) {
	plan, err := PlanEdits(l, edits)
	if err != nil {
		return nil, err
	}
	return plan.Layout(), nil
}

// EditPlan is an edit batch resolved against the layout it edits: the
// post-edit layout, each feature's pre-edit identity, and the bounding
// boxes of every piece of geometry that appeared or disappeared. A caller
// that must see the post-edit geometry before deciding to decompose it
// (the serving layer hashes it to look up a cached result) plans once and
// then Applies the same plan, instead of paying for EditLayout and
// ApplyEdits planning the batch twice.
type EditPlan struct {
	// base is the pre-edit layout, post the post-edit one; post shares the
	// plan's feature list, which nothing modifies after planning. edits is
	// the batch's operation count.
	base, post *layout.Layout
	edits      int
	// shapes is the post-edit feature list. orig[fi] is feature fi's index
	// in the pre-edit layout, or -1 for features added by an edit; edited
	// marks the features whose geometry differs from the pre-edit layout
	// (added or moved ones).
	shapes []geom.Polygon
	orig   []int32
	edited []bool
	// dirty holds the bounds of all edited geometry — the old position of
	// removed and moved features and the new position of added and moved
	// ones. Everything within MinS of a dirty rect is suspect.
	dirty []geom.Rect
}

// PlanEdits resolves the edits, in order, against l, which it does not
// modify.
func PlanEdits(l *layout.Layout, edits []Edit) (*EditPlan, error) {
	n, adds := len(l.Features), 0
	for _, e := range edits {
		if e.Op == EditAdd {
			adds++
		}
	}
	p := &EditPlan{
		base:   l,
		edits:  len(edits),
		shapes: make([]geom.Polygon, n, n+adds),
		orig:   make([]int32, n, n+adds),
		edited: make([]bool, n, n+adds),
	}
	copy(p.shapes, l.Features)
	for i := range p.orig {
		p.orig[i] = int32(i)
	}
	for ei, e := range edits {
		switch e.Op {
		case EditAdd:
			if !e.Shape.Valid() || !e.Shape.Connected() {
				return nil, fmt.Errorf("core: edit %d: added feature is invalid or disconnected", ei)
			}
			p.shapes = append(p.shapes, e.Shape)
			p.orig = append(p.orig, -1)
			p.edited = append(p.edited, true)
			p.dirty = append(p.dirty, e.Shape.Bounds())
		case EditRemove:
			if e.Feature < 0 || e.Feature >= len(p.shapes) {
				return nil, fmt.Errorf("core: edit %d: remove of feature %d out of range [0,%d)", ei, e.Feature, len(p.shapes))
			}
			p.dirty = append(p.dirty, p.shapes[e.Feature].Bounds())
			p.shapes = slices.Delete(p.shapes, e.Feature, e.Feature+1)
			p.orig = slices.Delete(p.orig, e.Feature, e.Feature+1)
			p.edited = slices.Delete(p.edited, e.Feature, e.Feature+1)
		case EditMove:
			if e.Feature < 0 || e.Feature >= len(p.shapes) {
				return nil, fmt.Errorf("core: edit %d: move of feature %d out of range [0,%d)", ei, e.Feature, len(p.shapes))
			}
			p.dirty = append(p.dirty, p.shapes[e.Feature].Bounds())
			p.shapes[e.Feature] = p.shapes[e.Feature].Translate(e.DX, e.DY)
			p.edited[e.Feature] = true
			p.dirty = append(p.dirty, p.shapes[e.Feature].Bounds())
		default:
			return nil, fmt.Errorf("core: edit %d: unknown op %v", ei, e.Op)
		}
	}
	p.post = &layout.Layout{Name: l.Name, Process: l.Process, Features: p.shapes}
	return p, nil
}

// Layout returns the post-edit layout.
func (p *EditPlan) Layout() *layout.Layout { return p.post }

// ApplyEdits incrementally re-decomposes an edited layout. l and prev are
// the layout and Result of the previous run (a Decompose of l, or a prior
// ApplyEdits that returned l) under the same opts; the returned layout is
// the post-edit geometry and the returned Result is its decomposition.
// Neither input is modified.
//
// Only the dirty region pays: fragments are rebuilt for edited features and
// for unedited features within MinS whose stitch fragmentation actually
// changed; edges are rediscovered only around rebuilt fragments; and only
// the connected components that intersect the dirty region are re-solved —
// every other component keeps its prior colors, which is exact, not an
// approximation, because its solver input is provably unchanged (see the
// package comment above and DESIGN.md §6). Conflict/stitch totals are
// updated by subtracting the invalidated components' old contribution and
// adding the re-solved components' new one.
//
// Cancellation follows DecomposeContext: a cancelled ctx degrades the dirty
// components to the linear-time fallback (Result.Degraded counts them)
// instead of failing. A degraded incremental result is still a valid
// coloring but no longer matches a from-scratch run.
func ApplyEdits(ctx context.Context, l *layout.Layout, prev *Result, edits []Edit, opts Options) (*layout.Layout, *Result, *EditStats, error) {
	plan, err := PlanEdits(l, edits)
	if err != nil {
		return nil, nil, nil, err
	}
	res, es, err := plan.Apply(ctx, prev, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	return plan.post, res, es, nil
}

// checkPrev checks that prev is a decomposition of l that an incremental
// run under opts may reuse, and returns the normalized options and the
// minimum coloring distance they derive.
func checkPrev(l *layout.Layout, prev *Result, opts Options) (Options, int, error) {
	if err := checkEngine(opts); err != nil {
		return opts, 0, err
	}
	opts = opts.withDefaults()
	if prev == nil || prev.Graph == nil {
		return opts, 0, fmt.Errorf("core: ApplyEdits needs the previous result")
	}
	pg := prev.Graph
	if pg.Stats.Features != len(l.Features) {
		return opts, 0, fmt.Errorf("core: previous result covers %d features, layout has %d", pg.Stats.Features, len(l.Features))
	}
	if len(prev.Colors) != len(pg.Fragments) {
		return opts, 0, fmt.Errorf("core: previous result is inconsistent: %d colors for %d fragments", len(prev.Colors), len(pg.Fragments))
	}
	if pg.G == nil || pg.G.N() != len(pg.Fragments) {
		return opts, 0, fmt.Errorf("core: previous result is inconsistent: its graph does not have one vertex per fragment (%d fragments)", len(pg.Fragments))
	}
	// Copied components are only valid under the exact options that
	// produced prev — engine, seed, division ablations, stitch settings,
	// everything. Compare the full normalized options, ignoring only the
	// result-neutral worker counts.
	want, have := opts, prev.Options
	want.Division.Workers, have.Division.Workers = 0, 0
	want.Build.Workers, have.Build.Workers = 0, 0
	if want != have {
		return opts, 0, fmt.Errorf("core: previous result was solved under different options (%+v) than requested (%+v)", prev.Options, opts)
	}
	minS := opts.Build.MinS
	if minS == 0 {
		minS = l.Process.MinColoringDistance(opts.Build.K)
	}
	if minS <= 0 {
		return opts, 0, fmt.Errorf("core: non-positive minimum coloring distance %d", minS)
	}
	if pg.MinS != minS || pg.HalfPitch != l.Process.HalfPitch {
		return opts, 0, fmt.Errorf("core: previous result was built with mins=%d hp=%d, options derive mins=%d hp=%d",
			pg.MinS, pg.HalfPitch, minS, l.Process.HalfPitch)
	}
	return opts, minS, nil
}

// Apply is ApplyEdits of the planned batch: prev is the Result of the
// layout the plan edits, and the Result returned decomposes p.Layout().
func (p *EditPlan) Apply(ctx context.Context, prev *Result, opts Options) (*Result, *EditStats, error) {
	opts, minS, err := checkPrev(p.base, prev, opts)
	if err != nil {
		return nil, nil, err
	}
	newL := p.post
	// Only edited features need checking: the rest are unchanged from the
	// base layout, which prev was built from.
	for fi, edited := range p.edited {
		if edited {
			if err := newL.ValidateFeature(fi); err != nil {
				return nil, nil, err
			}
		}
	}
	if err := newL.ValidateProcess(); err != nil {
		return nil, nil, err
	}

	// The incremental path runs the regular stages with Build and
	// Partition substituted by their dirty-region versions: the build
	// reuses every provably unchanged fragment and edge, the partition
	// classifies components as copy-safe versus dirty, the divide runs the
	// regular division over the dirty subgraph, and the merge applies
	// component-local objective deltas instead of a full recount.
	// sc lends the transient flat arrays (index maps, visit marks, splice
	// marks and counters) for the whole call.
	sc := sharedScratch.Get()
	defer sharedScratch.Put(sc)
	es := &EditStats{Edits: p.edits}
	run := &editRun{newL: newL, prev: prev, plan: p, opts: opts, minS: minS, es: es}
	if err := run.build(sc); err != nil {
		return nil, nil, err
	}
	tPart := time.Now()
	run.partition(sc)
	partTime := time.Since(tPart)
	run.divide(ctx, sc)
	run.dstats.AddStage(pipeline.StageBuild, es.BuildTime)
	run.dstats.AddStage(pipeline.StagePartition, partTime)
	tMerge := time.Now()
	res, err := run.merge()
	sc.PutInt32s(run.ib.oldToNew)
	sc.PutInt32s(run.ib.newToOld)
	if err != nil {
		return nil, nil, err
	}
	res.DivisionStats.AddStage(pipeline.StageMerge, time.Since(tMerge))
	return res, es, nil
}

// incrementalGraph is the output of the dirty-region graph rebuild: the
// post-edit decomposition graph plus the fragment provenance maps the
// component diff needs.
type incrementalGraph struct {
	dg *Graph
	// oldToNew maps pre-edit fragment indices to post-edit ones (-1 when
	// the fragment's feature was removed or rebuilt); newToOld is the
	// inverse (-1 for rebuilt fragments). Both maps are monotonic on their
	// defined entries — feature order is preserved by edits — which is why
	// reused components keep their vertices in the same relative order.
	oldToNew []int32
	newToOld []int32
	// rebuilt lists the post-edit fragments with no prior counterpart,
	// ascending.
	rebuilt []int32
}

// rebuiltFeature is one post-edit feature whose fragments the rebuild
// re-derived, and the index of its first fragment in the new graph.
type rebuiltFeature struct {
	fi     int
	pieces []geom.Polygon
	start  int
}

// rebuildGraph reconstructs the decomposition graph of the edited layout,
// reusing every fragment and every edge whose inputs provably did not
// change. The result is identical to BuildGraph(newL) — the equivalence
// harness and FuzzApplyEdits check this end to end.
//
// Geometry work (splitting, neighbor queries) touches only small windows
// around the edits. What remains proportional to the layout is flat array
// passes: the feature-bounds scans that select those windows, the fragment
// copy, and the splice's pass over the vertices and mapped copies of
// untouched rows.
func rebuildGraph(newL *layout.Layout, prev *Result, plan *EditPlan, opts Options, minS int, sc *pipeline.Scratch, es *EditStats) (*incrementalGraph, error) {
	pg := prev.Graph
	nOld, nf := len(pg.Fragments), len(plan.shapes)

	// oldStart[o]..oldStart[o+1] are the prior fragments of pre-edit
	// feature o: every build numbers fragments in feature order.
	oldStart := sc.Int32s(pg.Stats.Features + 1)
	defer sc.PutInt32s(oldStart)
	for i, fr := range pg.Fragments {
		if fr.Feature < 0 || fr.Feature >= pg.Stats.Features || (i > 0 && fr.Feature < pg.Fragments[i-1].Feature) {
			return nil, fmt.Errorf("core: previous result is inconsistent: fragment %d of feature %d out of feature order", i, fr.Feature)
		}
		oldStart[fr.Feature+1]++
	}
	for o := 0; o < pg.Stats.Features; o++ {
		oldStart[o+1] += oldStart[o]
	}
	oldFrags := func(o int) []Fragment { return pg.Fragments[oldStart[o]:oldStart[o+1]] }

	// Every window below is selected by a scan of this flat array rather
	// than of the polygons themselves.
	fbp := boundsPool.Get().(*[]geom.Rect)
	fb := slices.Grow((*fbp)[:0], nf)[:nf]
	defer func() { *fbp = fb[:0]; boundsPool.Put(fbp) }()
	for fi, f := range plan.shapes {
		fb[fi] = f.Bounds()
	}

	// Stage 1: fragmentation of the dirty features only.
	rb := splitDirty(newL, plan, fb, opts.Build.DisableStitches, minS, oldFrags, es)

	// Stage 2: fragment numbering in feature order, like a scratch build:
	// rebuilt features take their new pieces, every other feature copies its
	// prior fragments with the feature index rewritten.
	nNew, k := 0, 0
	for fi, o := range plan.orig {
		if k < len(rb) && rb[k].fi == fi {
			nNew += len(rb[k].pieces)
			k++
		} else {
			nNew += len(oldFrags(int(o)))
		}
	}
	if nNew > graph.MaxVertices {
		return nil, fmt.Errorf("core: layout splits into %d fragments, exceeding the graph capacity of %d vertices", nNew, graph.MaxVertices)
	}
	frags := make([]Fragment, nNew)
	// The index maps live until ApplyEdits returns them to sc.
	oldToNew := sc.Int32s(nOld)
	for i := range oldToNew {
		oldToNew[i] = -1
	}
	newToOld := sc.Int32s(nNew)
	newStart := sc.Int32s(nf + 1)
	defer sc.PutInt32s(newStart)
	var rebuilt []int32
	nw := 0
	k = 0
	for fi := 0; fi < nf; {
		if k < len(rb) && rb[k].fi == fi {
			newStart[fi] = int32(nw)
			rb[k].start = nw
			for _, p := range rb[k].pieces {
				frags[nw] = Fragment{Feature: fi, Shape: p}
				newToOld[nw] = -1
				rebuilt = append(rebuilt, int32(nw))
				nw++
			}
			k++
			fi++
			continue
		}
		// A run of reused features that were consecutive before the edit
		// owns one contiguous block of prior fragments: copy it whole and
		// shift the feature indices and both index maps by constants.
		end := fi + 1
		for end < nf && plan.orig[end] == plan.orig[end-1]+1 && (k == len(rb) || rb[k].fi != end) {
			end++
		}
		lo, hi := oldStart[plan.orig[fi]], oldStart[plan.orig[end-1]+1]
		copy(frags[nw:], pg.Fragments[lo:hi])
		if shift := fi - int(plan.orig[fi]); shift != 0 {
			for i := nw; i < nw+int(hi-lo); i++ {
				frags[i].Feature += shift
			}
		}
		delta := int32(nw) - lo
		for of := lo; of < hi; of++ {
			oldToNew[of] = of + delta
			newToOld[of+delta] = of
		}
		for f := fi; f < end; f++ {
			newStart[f] = oldStart[plan.orig[f]] + delta
		}
		nw += int(hi - lo)
		fi = end
	}
	newStart[nf] = int32(nw)
	es.RebuiltFragments = len(rebuilt)
	es.ReusedFragments = nNew - len(rebuilt)

	// Stage 3: the builder receives only the pairs with a rebuilt endpoint:
	// stitch pairs of rebuilt features from their pieces, conflict and
	// friend pairs re-derived from geometry. Pairs of two reused fragments
	// are the prior graph's — their geometry is untouched — so the splice
	// copies those rows through the index maps and merges in the fresh
	// entries, landing on the canonical rows a scratch build produces.
	bld := graph.NewBuilder(nNew)
	if !opts.Build.DisableStitches {
		for _, f := range rb {
			for i := 0; i < len(f.pieces); i++ {
				for j := i + 1; j < len(f.pieces); j++ {
					if geom.GapSqPoly(f.pieces[i], f.pieces[j]) == 0 {
						bld.AddStitch(f.start+i, f.start+j)
					}
				}
			}
		}
	}
	addDirtyEdges(bld, frags, rebuilt, newToOld, fb, newStart, minS, minS+newL.Process.HalfPitch)
	g := bld.BuildSpliced(pg.G, newToOld, oldToNew, sc)

	stats := BuildStats{
		Features:      nf,
		Fragments:     nNew,
		ConflictEdges: g.ConflictEdgeCount(),
		StitchEdges:   g.StitchEdgeCount(),
		FriendEdges:   g.FriendEdgeCount(),
		Workers:       1,
	}
	dg := &Graph{G: g, Fragments: frags, Stats: stats, MinS: minS, HalfPitch: newL.Process.HalfPitch}
	return &incrementalGraph{dg: dg, oldToNew: oldToNew, newToOld: newToOld, rebuilt: rebuilt}, nil
}

// splitDirty returns the features whose fragments must be rebuilt, in
// feature order, with their new pieces. Edited features always re-split.
// Unedited features with a rectangle within MinS of edited geometry
// ("suspects") re-split too, because their projection intervals may have
// changed, but count as rebuilt only if the pieces actually differ. Every
// other feature keeps its prior pieces: fragmentation is MinS-local.
//
// The neighbour join covers only the window of features within MinS of a
// re-split wire — split reads nothing else — so its cost follows the dirty
// region, not the layout.
func splitDirty(newL *layout.Layout, plan *EditPlan, fb []geom.Rect, disableStitches bool, minS int, oldFrags func(int) []Fragment, es *EditStats) []rebuiltFeature {
	var out []rebuiltFeature
	if disableStitches {
		for fi, edited := range plan.edited {
			if edited {
				out = append(out, rebuiltFeature{fi: fi, pieces: []geom.Polygon{plan.shapes[fi]}})
			}
		}
		es.RebuiltFeatures = len(out)
		return out
	}
	// Every edited feature passes the test: its own bounds are dirty.
	var todo []int32
	var wires []geom.Rect // the rectangles split queries around
	dirty := newBoxSet(plan.dirty, minS)
	for fi, b := range fb {
		f := plan.shapes[fi]
		if !dirty.nearPolygon(f, b) {
			continue
		}
		todo = append(todo, int32(fi))
		if !plan.edited[fi] {
			es.SuspectFeatures++
		}
		if len(f.Rects) == 1 {
			wires = append(wires, f.Rects[0])
		}
	}
	if len(todo) == 0 {
		return nil
	}
	var window []int32
	near := newBoxSet(wires, minS)
	for fi, b := range fb {
		if near.nearPolygon(plan.shapes[fi], b) {
			window = append(window, int32(fi))
		}
	}
	// The join's slot k is window[k]. slot[t] is todo[t]'s slot, or -1 for
	// a re-split feature outside the window: it is no wire, and split
	// keeps it whole. The splitter gathers neighbours only for re-split
	// wires.
	slot := make([]int32, len(todo))
	wire := make([]bool, len(window))
	k := 0
	for t, fi := range todo {
		for k < len(window) && window[k] < fi {
			k++
		}
		slot[t] = -1
		if k < len(window) && window[k] == fi {
			slot[t] = int32(k)
			wire[k] = len(plan.shapes[fi].Rects) == 1
		}
	}
	var rects []geom.Rect
	var owner []int32
	for k, fi := range window {
		for _, r := range plan.shapes[fi].Rects {
			rects = append(rects, r)
			owner = append(owner, int32(k))
		}
	}
	var pairs []int32
	join := spatial.NewJoin(rects, minS)
	for s := range join.Strips() {
		join.Sweep(s, func(a, c int32) {
			if ka, kc := owner[a], owner[c]; ka != kc && (wire[ka] || wire[kc]) {
				pairs = append(pairs, a, c)
			}
		})
	}
	splitter := newStitchSplitter(newL.Process.MinWidth, rects, owner, wire, [][]int32{pairs})
	buf := newSplitBuf(len(todo))
	for t, fi := range todo {
		var nb []int32
		if slot[t] >= 0 {
			nb = splitter.neighbours(int(slot[t]))
		}
		ps := splitter.split(buf, plan.shapes[fi], nb)
		if !plan.edited[fi] && piecesEqual(ps, oldFrags(int(plan.orig[fi]))) {
			continue // a stable suspect keeps its prior fragments
		}
		out = append(out, rebuiltFeature{fi: int(fi), pieces: ps})
	}
	es.RebuiltFeatures = len(out)
	return out
}

// addDirtyEdges re-derives every conflict and color-friendly pair with a
// rebuilt endpoint (newToOld[v] < 0). The neighbour join covers only the
// fragments whose bounds lie within the radius of a rebuilt fragment's
// bounds, selected from the rebuilt geometry itself: a suspect wire that
// was re-split can reach far past the edit that disturbed it. The scan goes
// feature by feature over the flat bounds fb (a fragment lies inside its
// feature's bounds) and looks at the fragments of near features only;
// newStart[fi] is the first fragment of feature fi. Every rebuilt fragment
// and every fragment within the radius of one is in the window, and the
// join's predicate is the bounds distance a scratch build's candidates
// pass, so the pairs kept are exactly a scratch build's.
func addDirtyEdges(bld *graph.Builder, frags []Fragment, rebuilt, newToOld []int32, fb []geom.Rect, newStart []int32, minS, radius int) {
	if len(rebuilt) == 0 {
		return
	}
	boxes := make([]geom.Rect, len(rebuilt))
	for k, u := range rebuilt {
		boxes[k] = frags[u].Shape.Bounds()
	}
	near := newBoxSet(boxes, radius)
	var window []int32
	var winBounds []geom.Rect
	for fi, b := range fb {
		if !near.nearRect(b) {
			continue
		}
		for v := newStart[fi]; v < newStart[fi+1]; v++ {
			if b := frags[v].Shape.Bounds(); near.nearRect(b) {
				window = append(window, v)
				winBounds = append(winBounds, b)
			}
		}
	}
	minSq := int64(minS) * int64(minS)
	friendOuter := int64(radius) * int64(radius)
	join := spatial.NewJoin(winBounds, radius)
	for s := range join.Strips() {
		join.Sweep(s, func(a, c int32) {
			u, v := window[a], window[c]
			if (newToOld[u] >= 0 && newToOld[v] >= 0) || frags[u].Feature == frags[v].Feature {
				return
			}
			d := geom.GapSqPoly(frags[u].Shape, frags[v].Shape)
			switch {
			case d <= minSq:
				bld.AddConflict(int(u), int(v))
			case d < friendOuter:
				bld.AddFriend(int(u), int(v))
			}
		})
	}
}

// boxSet answers "is this within d of any of a few boxes" for flat scans
// over a whole layout. The predicate is the neighbour join's — squared gap
// at most d² — behind two cheap rejections: the hull of the boxes grown by
// d, then each box grown by d (a rectangle within d of a box touches it
// grown).
type boxSet struct {
	boxes []geom.Rect
	grown []geom.Rect
	hull  geom.Rect // of grown
	dd    int64
}

func newBoxSet(boxes []geom.Rect, d int) *boxSet {
	s := &boxSet{boxes: boxes, grown: make([]geom.Rect, len(boxes)), dd: int64(d) * int64(d)}
	for k, b := range boxes {
		s.grown[k] = b.Expand(d)
		if k == 0 {
			s.hull = s.grown[k]
		}
		s.hull = s.hull.Union(s.grown[k])
	}
	return s
}

// nearRect reports whether r lies within d of some box.
func (s *boxSet) nearRect(r geom.Rect) bool {
	if len(s.boxes) == 0 || !r.Touches(s.hull) {
		return false
	}
	for k, g := range s.grown {
		if r.Touches(g) && geom.GapSq(r, s.boxes[k]) <= s.dd {
			return true
		}
	}
	return false
}

// nearPolygon reports whether some rectangle of p, whose bounds are b,
// lies within d of some box.
func (s *boxSet) nearPolygon(p geom.Polygon, b geom.Rect) bool {
	if !s.nearRect(b) {
		return false
	}
	if len(p.Rects) == 1 {
		return true
	}
	for _, r := range p.Rects {
		if s.nearRect(r) {
			return true
		}
	}
	return false
}

// boundsPool recycles rebuildGraph's per-feature bounds array across calls.
var boundsPool = sync.Pool{New: func() any { return new([]geom.Rect) }}

// piecesEqual reports whether a fragmentation equals a feature's prior
// fragments.
func piecesEqual(ps []geom.Polygon, old []Fragment) bool {
	if len(ps) != len(old) {
		return false
	}
	for i := range ps {
		if !slices.Equal(ps[i].Rects, old[i].Shape.Rects) {
			return false
		}
	}
	return true
}

// editRun carries one ApplyEdits call through its stages: the
// dirty-region Build and Partition substitutions, then a divide over the
// dirty subgraph and a delta merge.
type editRun struct {
	newL *layout.Layout
	prev *Result
	plan *EditPlan
	opts Options
	minS int
	es   *EditStats

	ib *incrementalGraph

	// partition output: the copy-safe components' colors pre-filled, the
	// dirty vertex union, and the prior fragments that were removed or
	// rebuilt — with the prior images of the dirty vertices, exactly the
	// prior vertices whose contribution the merge deltas subtract.
	colors  []int
	dirty   []int
	lostOld []int32

	// divide output.
	unproven bool
	dstats   division.Stats
}

// build is the dirty-region Build stage: reconstruct the decomposition
// graph reusing every provably unchanged fragment and adjacency entry.
func (r *editRun) build(sc *pipeline.Scratch) error {
	t0 := time.Now()
	ib, err := rebuildGraph(r.newL, r.prev, r.plan, r.opts, r.minS, sc, r.es)
	if err != nil {
		return err
	}
	r.es.BuildTime = time.Since(t0)
	ib.dg.Stats.Timing.Total = r.es.BuildTime
	r.ib = ib
	return nil
}

// partition is the dirty-region Partition stage: classify each post-edit
// component as copy-safe (prior colors reused verbatim) or dirty (queued
// for the divide stage).
//
// A component may keep its prior colors only if its solver input is
// provably the input the prior run solved: every vertex is a reused
// fragment, and no vertex's old component reached a fragment that was
// removed or rebuilt (otherwise the old component was larger than this one
// and its coloring reflects constraints that are gone). So the dirty
// components are exactly those reachable over conflict ∪ stitch edges from
// two kinds of seeds: the rebuilt vertices, and the new images of the old
// conflict/stitch neighbors of every lost (removed or rebuilt) fragment.
// Friend edges need no seeds — they only influence a solver within one
// component, and a friend edge to a vanished fragment necessarily crossed
// a component boundary or its loss is caught by the conflict/stitch seeds.
//
// The search from the seeds costs what the dirty components cost; one flat
// pass then copies the prior colors of every other vertex.
func (r *editRun) partition(sc *pipeline.Scratch) {
	prev, ib := r.prev, r.ib
	pg := prev.Graph
	g := ib.dg.G
	nNew := g.N()

	seeds := slices.Clone(ib.rebuilt)
	for of, nw := range ib.oldToNew {
		if nw >= 0 {
			continue
		}
		r.lostOld = append(r.lostOld, int32(of))
		for _, w := range pg.G.ConflictNeighbors(of) {
			if j := ib.oldToNew[w]; j >= 0 {
				seeds = append(seeds, j)
			}
		}
		for _, w := range pg.G.StitchNeighbors(of) {
			if j := ib.oldToNew[w]; j >= 0 {
				seeds = append(seeds, j)
			}
		}
	}

	seen := sc.Int32s(nNew)
	defer sc.PutInt32s(seen)
	var dirty []int32
	for _, s := range seeds {
		if seen[s] == 0 {
			dirty = appendComponent(g, s, seen, dirty)
			r.es.ResolvedComponents++
		}
	}
	r.colors = make([]int, nNew)
	for v := range r.colors {
		if seen[v] != 0 {
			r.colors[v] = coloring.Uncolored
		} else {
			r.colors[v] = prev.Colors[ib.newToOld[v]]
		}
	}
	r.dirty = make([]int, len(dirty))
	for i, v := range dirty {
		r.dirty[i] = int(v)
	}
	r.es.CopiedComponents = r.copiedComponents(sc, dirty)
	r.es.Components = r.es.ResolvedComponents + r.es.CopiedComponents
}

// copiedComponents counts the components that kept their prior colors.
// They are exactly the prior components holding no lost fragment and no
// prior image of a dirty vertex, so the answer is the prior component count
// minus the prior components the edit touched — a search over the dirty
// region of the prior graph. A prior result without the count (one
// restored from a durable session) counts its graph's components first.
func (r *editRun) copiedComponents(sc *pipeline.Scratch, dirty []int32) int {
	prev := r.prev
	pg := prev.Graph.G
	var buf []int32
	oldSeen := sc.Int32s(pg.N())
	defer sc.PutInt32s(oldSeen)
	components := prev.components
	if components == 0 {
		components = pg.ComponentCount(oldSeen)
	}
	touched := 0
	touch := func(ov int32) {
		if oldSeen[ov] == 0 {
			buf = appendComponent(pg, ov, oldSeen, buf[:0])
			touched++
		}
	}
	for _, ov := range r.lostOld {
		touch(ov)
	}
	for _, v := range dirty {
		if ov := r.ib.newToOld[v]; ov >= 0 {
			touch(ov)
		}
	}
	return components - touched
}

// appendComponent appends the component of s under conflict ∪ stitch edges
// to buf in breadth-first order, marking its vertices in seen (s must be
// unmarked).
func appendComponent(g *graph.Graph, s int32, seen, buf []int32) []int32 {
	seen[s] = 1
	buf = append(buf, s)
	for i := len(buf) - 1; i < len(buf); i++ {
		u := int(buf[i])
		for _, w := range g.ConflictNeighbors(u) {
			if seen[w] == 0 {
				seen[w] = 1
				buf = append(buf, w)
			}
		}
		for _, w := range g.StitchNeighbors(u) {
			if seen[w] == 0 {
				seen[w] = 1
				buf = append(buf, w)
			}
		}
	}
	return buf
}

// divide re-solves the dirty components exactly as a scratch run would:
// the induced subgraph over their union has those components as its
// components, and the double relabeling is order-preserving over canonical
// adjacency, so each engine sees the same per-component input a full
// DecomposeGraph would hand it. Division tallies its own
// simplify/partition/dispatch/stitch regions into the run's stats.
func (r *editRun) divide(ctx context.Context, sc *pipeline.Scratch) {
	tSolve := time.Now()
	if len(r.dirty) > 0 {
		sort.Ints(r.dirty)
		d, solve := newDispatch(ctx, r.opts, sharedScratch, sharedShapes)
		idx := sc.Int32s(r.ib.dg.G.N())
		sub := r.ib.dg.G.Subgraph(r.dirty, idx)
		sc.PutInt32s(idx)
		subColors, st := division.DecomposeEnv(ctx, sub, r.opts.Division, d.env, solve)
		for i, v := range r.dirty {
			r.colors[v] = subColors[i]
		}
		r.unproven = d.drainInto(&st)
		r.dstats = st
		r.es.ResolvedFragments = len(r.dirty)
	}
	r.es.SolveTime = time.Since(tSolve)
}

// merge validates the stitched-together coloring and updates the objective
// totals by component-local deltas. Conflict and stitch edges never cross
// component boundaries, so the copied components' contribution is
// byte-for-byte the same in both runs: subtract the old totals of
// everything not copied, add the new totals of everything re-solved (or
// newly built). The prior vertices not copied are the lost ones plus the
// prior images of the dirty vertices — a union of whole prior components,
// so counting each edge from its lower endpoint counts it exactly once.
func (r *editRun) merge() (*Result, error) {
	prev, ib := r.prev, r.ib
	pg := prev.Graph
	g := ib.dg.G
	colors := r.colors

	if err := coloring.Validate(g, colors, r.opts.K); err != nil {
		return nil, fmt.Errorf("core: internal error: %w", err)
	}

	conf, stit := prev.Conflicts, prev.Stitches
	unsolve := func(ov int) {
		for _, w := range pg.G.ConflictNeighbors(ov) {
			if int(w) > ov && prev.Colors[ov] == prev.Colors[w] {
				conf--
			}
		}
		for _, w := range pg.G.StitchNeighbors(ov) {
			if int(w) > ov && prev.Colors[ov] != prev.Colors[w] {
				stit--
			}
		}
	}
	for _, ov := range r.lostOld {
		unsolve(int(ov))
	}
	for _, v := range r.dirty {
		if ov := ib.newToOld[v]; ov >= 0 {
			unsolve(int(ov))
		}
		for _, w := range g.ConflictNeighbors(v) {
			if int(w) > v && colors[v] == colors[w] {
				conf++
			}
		}
		for _, w := range g.StitchNeighbors(v) {
			if int(w) > v && colors[v] != colors[w] {
				stit++
			}
		}
	}

	return &Result{
		Graph:         ib.dg,
		Colors:        colors,
		Conflicts:     conf,
		Stitches:      stit,
		Proven:        prev.Proven && !r.unproven && r.dstats.Fallbacks == 0,
		AssignTime:    r.es.SolveTime,
		SolverTime:    r.dstats.Stages[pipeline.StageDispatch].Wall,
		DivisionStats: r.dstats,
		Degraded:      r.dstats.Fallbacks,
		K:             r.opts.K,
		Alpha:         r.opts.Alpha,
		Options:       r.opts,
		components:    r.es.Components,
	}, nil
}
