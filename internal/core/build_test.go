package core

import (
	"context"
	"testing"

	"mpl/internal/geom"
	"mpl/internal/layout"
	"mpl/internal/spatial"
)

func TestVerticalWireStitch(t *testing.T) {
	// A vertical wire with neighbors near both ends splits once, same as
	// the horizontal case.
	l := layout.New("vstitch")
	l.AddRect(geom.Rect{X0: 0, Y0: 0, X1: 20, Y1: 400})
	l.AddRect(geom.Rect{X0: 60, Y0: 0, X1: 80, Y1: 60})
	l.AddRect(geom.Rect{X0: 60, Y0: 340, X1: 80, Y1: 400})
	dg, err := BuildGraph(l, BuildOptions{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if dg.Stats.Fragments != 4 || dg.Stats.StitchEdges != 1 {
		t.Fatalf("stats = %+v, want vertical split", dg.Stats)
	}
}

func TestMaxStitchesPerFeatureCap(t *testing.T) {
	// A very long wire with many isolated neighbor clusters would admit
	// many stitches; the cap keeps it at the configured count.
	l := layout.New("cap")
	l.AddRect(geom.Rect{X0: 0, Y0: 0, X1: 2000, Y1: 20})
	for i := 0; i < 8; i++ {
		x := i * 250
		l.AddRect(geom.Rect{X0: x, Y0: 60, X1: x + 40, Y1: 80})
	}
	for _, cap := range []int{1, 2, 3} {
		dg, err := BuildGraph(l, BuildOptions{K: 4, MaxStitchesPerFeature: cap})
		if err != nil {
			t.Fatal(err)
		}
		if got := dg.Stats.StitchEdges; got > cap {
			t.Fatalf("cap %d: %d stitch edges", cap, got)
		}
	}
}

func TestStitchMinSegRespected(t *testing.T) {
	// With a huge minimum segment, no stitch fits on a short wire.
	l := layout.New("minseg")
	l.AddRect(geom.Rect{X0: 0, Y0: 0, X1: 300, Y1: 20})
	l.AddRect(geom.Rect{X0: 0, Y0: 60, X1: 40, Y1: 80})
	l.AddRect(geom.Rect{X0: 260, Y0: 60, X1: 300, Y1: 80})
	dg, err := BuildGraph(l, BuildOptions{K: 4, StitchMinSeg: 200})
	if err != nil {
		t.Fatal(err)
	}
	if dg.Stats.Fragments != 3 || dg.Stats.StitchEdges != 0 {
		t.Fatalf("stats = %+v, want no split", dg.Stats)
	}
}

func TestMultiRectFeatureNotSplit(t *testing.T) {
	// L-shaped features keep their geometry (the stitch model is defined
	// on wires; see DESIGN.md §5).
	l := layout.New("lshape")
	l.Add(geom.NewPolygon(
		geom.Rect{X0: 0, Y0: 0, X1: 400, Y1: 20},
		geom.Rect{X0: 0, Y0: 20, X1: 20, Y1: 400},
	))
	l.AddRect(geom.Rect{X0: 100, Y0: 60, X1: 140, Y1: 80})
	dg, err := BuildGraph(l, BuildOptions{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if dg.Stats.Fragments != 2 {
		t.Fatalf("fragments = %d, want 2 (no L-shape splitting)", dg.Stats.Fragments)
	}
}

func TestFragmentsPreserveArea(t *testing.T) {
	// Splitting must conserve total feature area exactly.
	l := layout.New("area")
	l.AddRect(geom.Rect{X0: 0, Y0: 0, X1: 1000, Y1: 20})
	l.AddRect(geom.Rect{X0: 100, Y0: 60, X1: 140, Y1: 80})
	l.AddRect(geom.Rect{X0: 700, Y0: 60, X1: 740, Y1: 80})
	var want int64
	for _, f := range l.Features {
		want += f.Area()
	}
	dg, err := BuildGraph(l, BuildOptions{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	var got int64
	for _, fr := range dg.Fragments {
		got += fr.Shape.Area()
	}
	if got != want {
		t.Fatalf("area %d after split, want %d", got, want)
	}
}

func TestBadMinSRejected(t *testing.T) {
	l := layout.New("bad")
	l.AddRect(geom.Rect{X0: 0, Y0: 0, X1: 20, Y1: 20})
	if _, err := BuildGraph(l, BuildOptions{MinS: -5}); err == nil {
		t.Fatal("negative MinS accepted")
	}
}

// TestGridCellUnchangedOnBenchmarks pins the spatial grid's bucket cap against
// the committed circuits: each grid the build and the verifier make over a
// committed layout keeps its requested cell size, at every K the tables
// use. The bucket cap exists for sparse hostile inputs; it must not coarsen
// the grids real layouts are decomposed with.
func TestGridCellUnchangedOnBenchmarks(t *testing.T) {
	for name, l := range parallelCases(t) {
		for k := 3; k <= 6; k++ {
			dg, err := BuildGraph(l, BuildOptions{K: k})
			if err != nil {
				t.Fatal(err)
			}
			minS := dg.MinS
			radius := minS + dg.HalfPitch
			var rects, frags []geom.Rect
			for _, f := range l.Features {
				rects = append(rects, f.Rects...)
			}
			for _, fr := range dg.Fragments {
				frags = append(frags, fr.Shape.Bounds())
			}
			for _, g := range []struct {
				what  string
				world geom.Rect
				cell  int
				rects []geom.Rect
			}{
				{"splitter", l.Bounds().Expand(minS + 1), minS, rects},
				{"edges", l.Bounds().Expand(radius + 1), radius, frags},
				{"verify", worldOf(dg), minS + 1, frags},
			} {
				grid := spatial.NewGrid(g.world, g.cell, g.rects)
				if grid.Cell() != g.cell {
					t.Errorf("%s K=%d %s grid: cell %d grew to %d", name, k, g.what, g.cell, grid.Cell())
				}
				grid.Release()
			}
		}
	}
}

// TestDecomposeFarApartFeatures: two features 10⁷ nm apart make a world box
// of 10¹⁴ nm². Before the spatial grid capped its bucket count at a multiple
// of its entries, building this two-feature layout allocated tens of
// gigabytes and could crash the process with an uncatchable out-of-memory
// error — from a request body of a few hundred bytes.
func TestDecomposeFarApartFeatures(t *testing.T) {
	l := layout.New("far")
	l.AddRect(geom.Rect{X0: 0, Y0: 0, X1: 20, Y1: 20})
	l.AddRect(geom.Rect{X0: 10_000_000, Y0: 10_000_000, X1: 10_000_020, Y1: 10_000_020})
	res, err := Decompose(l, Options{K: 4, Algorithm: AlgLinear})
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.Stats.Fragments != 2 || res.Graph.Stats.ConflictEdges != 0 {
		t.Fatalf("stats = %+v, want 2 isolated fragments", res.Graph.Stats)
	}
	if conf, stit, err := VerifySolution(res); err != nil || conf != 0 || stit != 0 {
		t.Fatalf("VerifySolution = %d, %d, %v", conf, stit, err)
	}
}

// TestDecomposeTranslationInvariantInRange pins the coordinate range: a
// pair of overlapping parallel wires (each stitch-split where the other
// ends) decomposes identically at every in-range offset, and an offset
// that reaches ±2^30 is rejected instead of decomposing differently —
// before the range existed, the pair at x = 2^62 overflowed into 2
// fragments, 1 conflict edge and no stitch edges.
func TestDecomposeTranslationInvariantInRange(t *testing.T) {
	pair := [2]geom.Rect{{X0: 0, Y0: 0, X1: 400, Y1: 20}, {X0: 300, Y0: 50, X1: 700, Y1: 70}}
	decompose := func(dx, dy int) (*Result, error) {
		l := layout.New("pair")
		for _, r := range pair {
			l.AddRect(r.Translate(dx, dy))
		}
		return Decompose(l, Options{K: 4, Algorithm: AlgSDPBacktrack})
	}
	ref, err := decompose(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s := ref.Graph.Stats; s.Fragments != 4 || s.ConflictEdges != 1 || s.StitchEdges != 2 {
		t.Fatalf("reference stats %+v, want 4 fragments, 1 conflict edge, 2 stitch edges", s)
	}
	top := layout.CoordLimit - 1 - 700
	for _, off := range [][2]int{{1 << 20, 0}, {top, top}, {-(layout.CoordLimit - 1), 5}} {
		res, err := decompose(off[0], off[1])
		if err != nil {
			t.Fatalf("offset %v: %v", off, err)
		}
		a, b := res.Graph.Stats, ref.Graph.Stats
		if a.Fragments != b.Fragments || a.ConflictEdges != b.ConflictEdges || a.StitchEdges != b.StitchEdges ||
			res.Conflicts != ref.Conflicts || res.Stitches != ref.Stitches {
			t.Fatalf("offset %v: %+v cn %d st %d, want %+v cn %d st %d", off, a, res.Conflicts, res.Stitches, b, ref.Conflicts, ref.Stitches)
		}
	}
	for _, off := range [][2]int{{top + 1, 0}, {0, -layout.CoordLimit}, {1 << 62, 0}} {
		if _, err := decompose(off[0], off[1]); err == nil {
			t.Fatalf("offset %v beyond ±2^30 decomposed", off)
		}
	}
}

// TestApplyEditsRejectsOutOfRangeMove: a move is checked like any other
// feature, so an ECO session can never hold geometry a scratch Decompose
// (or the durable edit log) would refuse.
func TestApplyEditsRejectsOutOfRangeMove(t *testing.T) {
	l := layout.New("move")
	l.AddRect(geom.Rect{X0: 0, Y0: 0, X1: 20, Y1: 200})
	l.AddRect(geom.Rect{X0: 50, Y0: 0, X1: 70, Y1: 200})
	opts := Options{K: 4, Algorithm: AlgLinear}
	res, err := Decompose(l, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, dy := range []int{layout.CoordLimit - 200, -layout.CoordLimit, 1 << 40} {
		if _, _, _, err := ApplyEdits(context.Background(), l, res, []Edit{{Op: EditMove, Feature: 1, DY: dy}}, opts); err == nil {
			t.Errorf("move by dy=%d accepted", dy)
		}
	}
	if _, _, _, err := ApplyEdits(context.Background(), l, res, []Edit{{Op: EditMove, Feature: 1, DY: layout.CoordLimit - 201}}, opts); err != nil {
		t.Errorf("in-range move rejected: %v", err)
	}
}
