package core

// The randomized equivalence harness for incremental (ECO) decomposition:
// every test below drives ApplyEdits through generated edit sequences and
// checks observable equivalence against a from-scratch Decompose of the
// same post-edit layout — identical graph (byte-for-byte adjacency),
// identical colors, identical conflict/stitch counts, a clean
// coloring.Validate, and VerifySolution agreement. This is the correctness
// story of DESIGN.md §6: incremental must never be distinguishable from a
// full re-run.

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"mpl/internal/coloring"
	"mpl/internal/division"
	"mpl/internal/geom"
	"mpl/internal/layout"
	"mpl/internal/synth"
)

// randomEdits generates a batch of 1–3 edit operations against a layout
// with nf features, using the sequential index semantics of ApplyEdits.
// Adds drop contact-sized squares inside (or near) the current bounding
// box; moves translate by up to ±3 half-pitches, small enough that edited
// features usually stay coupled to their old neighborhood.
func randomEdits(rng *rand.Rand, l *layout.Layout) []Edit {
	cnt := len(l.Features)
	b := l.Bounds()
	w, h := b.Width(), b.Height()
	if w < 100 {
		w = 100
	}
	if h < 100 {
		h = 100
	}
	n := 1 + rng.Intn(3)
	var edits []Edit
	for i := 0; i < n; i++ {
		op := rng.Intn(3)
		if cnt == 0 {
			op = 0
		}
		switch op {
		case 0:
			x := b.X0 + rng.Intn(w)
			y := b.Y0 + rng.Intn(h)
			edits = append(edits, Edit{Op: EditAdd, Shape: geom.NewPolygon(geom.Rect{X0: x, Y0: y, X1: x + 20, Y1: y + 20})})
			cnt++
		case 1:
			edits = append(edits, Edit{Op: EditRemove, Feature: rng.Intn(cnt)})
			cnt--
		default:
			edits = append(edits, Edit{
				Op: EditMove, Feature: rng.Intn(cnt),
				DX: (rng.Intn(7) - 3) * 20, DY: (rng.Intn(7) - 3) * 20,
			})
		}
	}
	return edits
}

// graphsEqual compares two decomposition graphs for byte-for-byte equality:
// fragment provenance and geometry, adjacency content and order, stats.
func graphsEqual(t *testing.T, inc, scratch *Graph) {
	t.Helper()
	if inc.G.N() != scratch.G.N() {
		t.Fatalf("fragment count: incremental %d, scratch %d", inc.G.N(), scratch.G.N())
	}
	for v := 0; v < inc.G.N(); v++ {
		fi, fs := inc.Fragments[v], scratch.Fragments[v]
		if fi.Feature != fs.Feature || !slices.Equal(fi.Shape.Rects, fs.Shape.Rects) {
			t.Fatalf("fragment %d differs: %+v vs %+v", v, fi, fs)
		}
		if !slices.Equal(inc.G.ConflictNeighbors(v), scratch.G.ConflictNeighbors(v)) {
			t.Fatalf("conflict adjacency of %d differs: %v vs %v", v, inc.G.ConflictNeighbors(v), scratch.G.ConflictNeighbors(v))
		}
		if !slices.Equal(inc.G.StitchNeighbors(v), scratch.G.StitchNeighbors(v)) {
			t.Fatalf("stitch adjacency of %d differs: %v vs %v", v, inc.G.StitchNeighbors(v), scratch.G.StitchNeighbors(v))
		}
		if !slices.Equal(inc.G.FriendNeighbors(v), scratch.G.FriendNeighbors(v)) {
			t.Fatalf("friend adjacency of %d differs: %v vs %v", v, inc.G.FriendNeighbors(v), scratch.G.FriendNeighbors(v))
		}
	}
	si, ss := inc.Stats, scratch.Stats
	si.Workers, ss.Workers = 0, 0
	si.Timing, ss.Timing = BuildTiming{}, BuildTiming{}
	if si != ss {
		t.Fatalf("build stats differ: %+v vs %+v", si, ss)
	}
}

// assertEquivalent is the harness core: the incremental result must be
// observably identical to the from-scratch one.
func assertEquivalent(t *testing.T, k int, inc, scratch *Result) {
	t.Helper()
	graphsEqual(t, inc.Graph, scratch.Graph)
	if !slices.Equal(inc.Colors, scratch.Colors) {
		for v := range inc.Colors {
			if inc.Colors[v] != scratch.Colors[v] {
				t.Fatalf("color of fragment %d: incremental %d, scratch %d", v, inc.Colors[v], scratch.Colors[v])
			}
		}
	}
	if inc.Conflicts != scratch.Conflicts || inc.Stitches != scratch.Stitches {
		t.Fatalf("objective: incremental %d/%d, scratch %d/%d",
			inc.Conflicts, inc.Stitches, scratch.Conflicts, scratch.Stitches)
	}
	for _, r := range []*Result{inc, scratch} {
		if err := coloring.Validate(r.Graph.G, r.Colors, k); err != nil {
			t.Fatalf("invalid coloring: %v", err)
		}
		conf, stit, err := VerifySolution(r)
		if err != nil {
			t.Fatal(err)
		}
		if conf != r.Conflicts || stit != r.Stitches {
			t.Fatalf("VerifySolution disagrees: geometry says %d/%d, result says %d/%d",
				conf, stit, r.Conflicts, r.Stitches)
		}
	}
}

// assertEditStats checks EditStats' bookkeeping against the from-scratch
// graph: fragment provenance covers every vertex, and the component counts
// are exact — the copied/resolved split of ApplyEdits must add up to the
// component count of the scratch graph, not just to itself.
func assertEditStats(t *testing.T, step int, es *EditStats, inc, scratch *Result) {
	t.Helper()
	if es.ReusedFragments+es.RebuiltFragments != len(inc.Graph.Fragments) {
		t.Fatalf("step %d: fragment provenance %d+%d != %d", step,
			es.ReusedFragments, es.RebuiltFragments, len(inc.Graph.Fragments))
	}
	if es.ResolvedComponents+es.CopiedComponents != es.Components {
		t.Fatalf("step %d: component partition %d+%d != %d", step,
			es.ResolvedComponents, es.CopiedComponents, es.Components)
	}
	if want := len(scratch.Graph.G.Components()); es.Components != want {
		t.Fatalf("step %d: EditStats.Components = %d, scratch graph has %d", step, es.Components, want)
	}
}

// TestIncrementalEquivalenceRandomized chains random edit batches over the
// synthetic circuits and checks every step against a from-scratch run, at
// K = 3 and K = 4 and with 1 and 8 division workers, for each
// deterministic engine (the ILP engine's wall-clock budget makes it the
// one engine without a determinism guarantee). The served-C7552 case is
// the configuration the serving benchmark's eco workload runs: the full
// committed-size circuit, K = 4, SDP+Backtrack on two workers.
func TestIncrementalEquivalenceRandomized(t *testing.T) {
	cases := []struct {
		name    string
		circuit string
		scale   float64
		k       int
		workers int
		alg     Algorithm
		steps   int
	}{
		{"K4-w1-linear", "C432", 0.30, 4, 1, AlgLinear, 6},
		{"K3-w1-linear", "C499", 0.25, 3, 1, AlgLinear, 6},
		{"K4-w8-linear", "C880", 0.20, 4, 8, AlgLinear, 6},
		{"K3-w8-linear", "C432", 0.25, 3, 8, AlgLinear, 6},
		{"K4-w1-sdp-backtrack", "C432", 0.15, 4, 1, AlgSDPBacktrack, 4},
		{"K4-w8-sdp-backtrack", "C499", 0.15, 4, 8, AlgSDPBacktrack, 4},
		{"K3-w1-sdp-greedy", "C499", 0.15, 3, 1, AlgSDPGreedy, 4},
		{"K3-w8-sdp-greedy", "C432", 0.15, 3, 8, AlgSDPGreedy, 4},
		{"served-C7552-K4-w2-sdp-backtrack", "C7552", 1.0, 4, 2, AlgSDPBacktrack, 20},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, err := synth.GenerateByName(tc.circuit, tc.scale)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{K: tc.k, Algorithm: tc.alg, Seed: 1, Division: division.Options{Workers: tc.workers}}
			prev, err := Decompose(l, opts)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(1000 + ci)))
			for step := 0; step < tc.steps; step++ {
				edits := randomEdits(rng, l)
				if step%2 == 1 {
					// A result restored from a durable session carries no
					// component count; ApplyEdits must count from scratch.
					prev.components = 0
				}
				newL, inc, es, err := ApplyEdits(context.Background(), l, prev, edits, opts)
				if err != nil {
					t.Fatalf("step %d (%v): %v", step, edits, err)
				}
				scratch, err := Decompose(newL, opts)
				if err != nil {
					t.Fatal(err)
				}
				assertEquivalent(t, tc.k, inc, scratch)
				assertEditStats(t, step, es, inc, scratch)
				l, prev = newL, inc
			}
		})
	}
}

// TestIncrementalReusesMostComponents: a single local edit on a spread-out
// circuit must not re-solve the world — the whole point of the subsystem.
func TestIncrementalReusesMostComponents(t *testing.T) {
	l, err := synth.GenerateByName("C880", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{K: 4, Algorithm: AlgLinear}
	prev, err := Decompose(l, opts)
	if err != nil {
		t.Fatal(err)
	}
	edits := []Edit{{Op: EditMove, Feature: 0, DX: 20, DY: 0}}
	_, _, es, err := ApplyEdits(context.Background(), l, prev, edits, opts)
	if err != nil {
		t.Fatal(err)
	}
	if es.Components < 10 {
		t.Fatalf("test layout too small to be meaningful: %d components", es.Components)
	}
	if es.ResolvedComponents > es.Components/4 {
		t.Fatalf("one local edit re-solved %d of %d components", es.ResolvedComponents, es.Components)
	}
	if es.RebuiltFragments > es.ReusedFragments {
		t.Fatalf("one local edit rebuilt %d fragments, reused only %d", es.RebuiltFragments, es.ReusedFragments)
	}
}

// TestIncrementalEdgeCases covers the degenerate shapes of the edit space.
func TestIncrementalEdgeCases(t *testing.T) {
	opts := Options{K: 4, Algorithm: AlgLinear}
	ctx := context.Background()

	t.Run("empty-batch", func(t *testing.T) {
		l, _ := synth.GenerateByName("C432", 0.2)
		prev, err := Decompose(l, opts)
		if err != nil {
			t.Fatal(err)
		}
		_, inc, es, err := ApplyEdits(ctx, l, prev, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		if es.ResolvedComponents != 0 || es.RebuiltFragments != 0 {
			t.Fatalf("no-op batch did work: %+v", es)
		}
		if inc.Conflicts != prev.Conflicts || inc.Stitches != prev.Stitches {
			t.Fatalf("no-op batch changed the objective")
		}
	})

	t.Run("remove-everything", func(t *testing.T) {
		l := layout.New("tiny")
		l.AddRect(geom.Rect{X0: 0, Y0: 0, X1: 20, Y1: 20})
		l.AddRect(geom.Rect{X0: 40, Y0: 0, X1: 60, Y1: 20})
		prev, err := Decompose(l, opts)
		if err != nil {
			t.Fatal(err)
		}
		newL, inc, _, err := ApplyEdits(ctx, l, prev, []Edit{
			{Op: EditRemove, Feature: 1}, {Op: EditRemove, Feature: 0},
		}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(newL.Features) != 0 || len(inc.Colors) != 0 || inc.Conflicts != 0 || inc.Stitches != 0 {
			t.Fatalf("emptying the layout left residue: %d features, %d colors, %d/%d",
				len(newL.Features), len(inc.Colors), inc.Conflicts, inc.Stitches)
		}
	})

	t.Run("grow-from-empty", func(t *testing.T) {
		l := layout.New("empty")
		prev, err := Decompose(l, opts)
		if err != nil {
			t.Fatal(err)
		}
		edits := []Edit{
			{Op: EditAdd, Shape: geom.NewPolygon(geom.Rect{X0: 0, Y0: 0, X1: 20, Y1: 20})},
			{Op: EditAdd, Shape: geom.NewPolygon(geom.Rect{X0: 40, Y0: 0, X1: 60, Y1: 20})},
		}
		newL, inc, _, err := ApplyEdits(ctx, l, prev, edits, opts)
		if err != nil {
			t.Fatal(err)
		}
		scratch, err := Decompose(newL, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertEquivalent(t, 4, inc, scratch)
	})

	t.Run("invalid-edits-rejected", func(t *testing.T) {
		l, _ := synth.GenerateByName("C432", 0.2)
		prev, err := Decompose(l, opts)
		if err != nil {
			t.Fatal(err)
		}
		bad := [][]Edit{
			{{Op: EditRemove, Feature: len(l.Features)}},
			{{Op: EditMove, Feature: -1}},
			{{Op: EditAdd}}, // empty shape
			{{Op: EditOp(99)}},
		}
		for i, edits := range bad {
			if _, _, _, err := ApplyEdits(ctx, l, prev, edits, opts); err == nil {
				t.Fatalf("bad batch %d accepted", i)
			}
		}
	})

	t.Run("stale-result-rejected", func(t *testing.T) {
		l, _ := synth.GenerateByName("C432", 0.2)
		prev, err := Decompose(l, opts)
		if err != nil {
			t.Fatal(err)
		}
		other, _ := synth.GenerateByName("C499", 0.2)
		if _, _, _, err := ApplyEdits(ctx, other, prev, nil, opts); err == nil {
			t.Fatal("result/layout feature-count mismatch accepted")
		}
		if _, _, _, err := ApplyEdits(ctx, l, prev, nil, Options{K: 5, Algorithm: AlgLinear}); err == nil {
			t.Fatal("K mismatch accepted")
		}
		// Any solve-affecting option mismatch must be rejected: copied
		// components would mix engines/settings and break equivalence.
		for i, bad := range []Options{
			{K: 4, Algorithm: AlgSDPGreedy},
			{K: 4, Algorithm: AlgLinear, Seed: 99},
			{K: 4, Algorithm: AlgLinear, Alpha: 0.3},
			{K: 4, Algorithm: AlgLinear, Build: BuildOptions{DisableStitches: true}},
		} {
			if _, _, _, err := ApplyEdits(ctx, l, prev, nil, bad); err == nil {
				t.Fatalf("option mismatch %d accepted", i)
			}
		}
	})

	// A prior result whose graph disagrees with its own fragment list is
	// rejected with an error: the rebuild indexes the prior graph by
	// fragment and used to panic (index out of range) on a short list or a
	// nil graph.
	t.Run("graph-fragment-mismatch-rejected", func(t *testing.T) {
		l, _ := synth.GenerateByName("C432", 0.4)
		prev, err := Decompose(l, opts)
		if err != nil {
			t.Fatal(err)
		}
		move := []Edit{{Op: EditMove, Feature: 0, DX: 5}}
		short := *prev.Graph
		short.Fragments = short.Fragments[:len(short.Fragments)-1]
		noGraph := *prev.Graph
		noGraph.G = nil
		for name, pg := range map[string]*Graph{"short fragment list": &short, "nil graph": &noGraph} {
			bad := *prev
			bad.Graph = pg
			bad.Colors = prev.Colors[:len(pg.Fragments)]
			if _, _, _, err := ApplyEdits(ctx, l, &bad, move, opts); err == nil {
				t.Fatalf("%s accepted", name)
			}
		}
	})

	// applyAndCompare runs one batch incrementally and from scratch and
	// checks every equivalence and bookkeeping invariant.
	applyAndCompare := func(t *testing.T, l *layout.Layout, edits []Edit) (*Result, *EditStats) {
		t.Helper()
		prev, err := Decompose(l, opts)
		if err != nil {
			t.Fatal(err)
		}
		newL, inc, es, err := ApplyEdits(ctx, l, prev, edits, opts)
		if err != nil {
			t.Fatal(err)
		}
		scratch, err := Decompose(newL, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertEquivalent(t, 4, inc, scratch)
		assertEditStats(t, 0, es, inc, scratch)
		return inc, es
	}

	t.Run("add-outside-bounds", func(t *testing.T) {
		// Two conflicting contacts far beyond the prior bounding box: the
		// windows must not assume new geometry lies inside the old world.
		l, _ := synth.GenerateByName("C432", 0.2)
		b := l.Bounds()
		x, y := b.X1+5000, b.Y1+3000
		applyAndCompare(t, l, []Edit{
			{Op: EditAdd, Shape: geom.NewPolygon(geom.Rect{X0: x, Y0: y, X1: x + 20, Y1: y + 20})},
			{Op: EditAdd, Shape: geom.NewPolygon(geom.Rect{X0: x + 50, Y0: y, X1: x + 70, Y1: y + 20})},
		})
	})

	t.Run("move-across-edge", func(t *testing.T) {
		l, _ := synth.GenerateByName("C432", 0.2)
		b := l.Bounds()
		applyAndCompare(t, l, []Edit{
			{Op: EditMove, Feature: 0, DX: b.Width() + 500, DY: 0},
			{Op: EditMove, Feature: 1, DX: 0, DY: -b.Height() - 500},
		})
	})

	t.Run("remove-splits-component", func(t *testing.T) {
		// a–b–c is one conflict chain (gaps 50); a and c alone are 120
		// apart, beyond MinS and the friend band. Removing b leaves two
		// components, both re-solved.
		l := layout.New("chain")
		l.AddRect(geom.Rect{X0: 0, Y0: 0, X1: 20, Y1: 20})
		l.AddRect(geom.Rect{X0: 70, Y0: 0, X1: 90, Y1: 20})
		l.AddRect(geom.Rect{X0: 140, Y0: 0, X1: 160, Y1: 20})
		l.AddRect(geom.Rect{X0: 1000, Y0: 0, X1: 1020, Y1: 20}) // untouched
		_, es := applyAndCompare(t, l, []Edit{{Op: EditRemove, Feature: 1}})
		if es.Components != 3 || es.ResolvedComponents != 2 || es.CopiedComponents != 1 {
			t.Fatalf("components %d (resolved %d, copied %d), want 3 (2, 1)", es.Components, es.ResolvedComponents, es.CopiedComponents)
		}
	})

	t.Run("move-resplits-neighbor", func(t *testing.T) {
		// Sliding the left pin along the wire moves the wire's forbidden
		// projection: the wire is re-split from one stitch to two although
		// it was not edited.
		l := layout.New("slide")
		l.AddRect(geom.Rect{X0: 0, Y0: 0, X1: 400, Y1: 20})    // the wire
		l.AddRect(geom.Rect{X0: 0, Y0: 60, X1: 60, Y1: 80})    // left pin
		l.AddRect(geom.Rect{X0: 340, Y0: 60, X1: 400, Y1: 80}) // right pin
		inc, es := applyAndCompare(t, l, []Edit{{Op: EditMove, Feature: 1, DX: 100}})
		if es.SuspectFeatures == 0 || es.RebuiltFeatures != 2 {
			t.Fatalf("want the wire re-split as a suspect: %+v", es)
		}
		if got := inc.Graph.Stats.StitchEdges; got != 2 {
			t.Fatalf("wire has %d stitch edges after the move, want 2", got)
		}
	})

	t.Run("far-reaching-resplit", func(t *testing.T) {
		// A contact added over the middle of a 20 µm wire re-splits it, and
		// the wire's last piece now starts 5 µm from the edit and reaches
		// the far end, where a contact and a pin sit ~10 µm away from the
		// edit. Their edges to the new piece come only from a window built
		// around the rebuilt fragments, not around the edit.
		l := layout.New("long-wire")
		l.AddRect(geom.Rect{X0: 0, Y0: 0, X1: 20000, Y1: 20})               // the wire
		l.AddRect(geom.Rect{X0: 0, Y0: 60, X1: 60, Y1: 80})                 // left pin
		l.AddRect(geom.Rect{X0: 19940, Y0: 60, X1: 20000, Y1: 80})          // right pin
		far := l.AddRect(geom.Rect{X0: 19800, Y0: -70, X1: 19820, Y1: -50}) // below the far end
		inc, es := applyAndCompare(t, l, []Edit{
			{Op: EditAdd, Shape: geom.NewPolygon(geom.Rect{X0: 9900, Y0: 60, X1: 9940, Y1: 80})},
		})
		if es.RebuiltFeatures != 2 {
			t.Fatalf("want the added contact and the re-split wire rebuilt: %+v", es)
		}
		dg := inc.Graph
		var farFrag int
		for v, fr := range dg.Fragments {
			if fr.Feature == far {
				farFrag = v
			}
		}
		linked := false
		for _, w := range dg.G.ConflictNeighbors(farFrag) {
			if fr := dg.Fragments[w]; fr.Feature == 0 && fr.Shape.Bounds().X0 < 19000 {
				linked = true // the re-split piece reaching back toward the edit
			}
		}
		if !linked {
			t.Fatal("far contact lost its conflict with the re-split wire piece")
		}
	})

	t.Run("far-move", func(t *testing.T) {
		// A move by 10⁷ nm stretches the layout: before the old spatial grid
		// capped its bucket count, this one edit allocated tens of gigabytes;
		// the neighbour join caps its strips the same way.
		l, _ := synth.GenerateByName("C432", 0.2)
		applyAndCompare(t, l, []Edit{{Op: EditMove, Feature: 0, DX: 10_000_000, DY: 10_000_000}})
	})

	t.Run("stitch-region-edit", func(t *testing.T) {
		// Editing next to a wire changes its projection intervals, so its
		// fragmentation must be rebuilt (the suspect path) and the result
		// must still match scratch.
		l := layout.New("stitchy")
		l.AddRect(geom.Rect{X0: 0, Y0: 0, X1: 400, Y1: 20})    // the wire
		l.AddRect(geom.Rect{X0: 0, Y0: 60, X1: 60, Y1: 80})    // left pin
		l.AddRect(geom.Rect{X0: 340, Y0: 60, X1: 400, Y1: 80}) // right pin
		prev, err := Decompose(l, opts)
		if err != nil {
			t.Fatal(err)
		}
		// Add a contact over the wire's formerly uncovered middle: the
		// stitch candidate there must disappear, exactly as from scratch.
		edits := []Edit{{Op: EditAdd, Shape: geom.NewPolygon(geom.Rect{X0: 180, Y0: 60, X1: 220, Y1: 80})}}
		newL, inc, es, err := ApplyEdits(ctx, l, prev, edits, opts)
		if err != nil {
			t.Fatal(err)
		}
		if es.RebuiltFeatures < 2 { // the added contact and the re-split wire
			t.Fatalf("expected the wire to be rebuilt: %+v", es)
		}
		scratch, err := Decompose(newL, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertEquivalent(t, 4, inc, scratch)
	})
}

// TestIncrementalDisabledStitches exercises the DisableStitches build mode,
// where fragmentation is feature-identity and only edges change.
func TestIncrementalDisabledStitches(t *testing.T) {
	l, err := synth.GenerateByName("C432", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{K: 4, Algorithm: AlgLinear, Build: BuildOptions{DisableStitches: true}}
	prev, err := Decompose(l, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 4; step++ {
		edits := randomEdits(rng, l)
		newL, inc, _, err := ApplyEdits(context.Background(), l, prev, edits, opts)
		if err != nil {
			t.Fatal(err)
		}
		scratch, err := Decompose(newL, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertEquivalent(t, 4, inc, scratch)
		l, prev = newL, inc
	}
}

// TestIncrementalCancelledDegrades: the deadline contract carries over —
// a dead context still yields a valid coloring, flagged Degraded.
func TestIncrementalCancelledDegrades(t *testing.T) {
	l, err := synth.GenerateByName("C432", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{K: 4, Algorithm: AlgSDPBacktrack}
	prev, err := Decompose(l, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Remove a macro-region feature so at least one dense component must be
	// re-solved under the dead context.
	_, inc, es, err := ApplyEdits(ctx, l, prev, []Edit{{Op: EditRemove, Feature: 3}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := coloring.Validate(inc.Graph.G, inc.Colors, 4); err != nil {
		t.Fatalf("degraded incremental result invalid: %v", err)
	}
	if es.ResolvedComponents > 0 && inc.Degraded == 0 {
		t.Fatalf("dead context re-solved %d components at full quality", es.ResolvedComponents)
	}
	if inc.Degraded > 0 && inc.Proven {
		t.Fatal("degraded result claims Proven")
	}
}
