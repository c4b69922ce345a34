package core

import (
	"context"
	"math"
	"runtime"
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
	// many stitches; the cap keeps it at maxStitchesPerFeature.
	l := layout.New("cap")
	l.AddRect(geom.Rect{X0: 0, Y0: 0, X1: 2000, Y1: 20})
	for i := 0; i < 8; i++ {
		x := i * 250
		l.AddRect(geom.Rect{X0: x, Y0: 60, X1: x + 40, Y1: 80})
	}
	dg, err := BuildGraph(l, BuildOptions{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := dg.Stats.StitchEdges; got != maxStitchesPerFeature {
		t.Fatalf("%d stitch edges, want the cap %d", got, maxStitchesPerFeature)
	}
}

func TestStitchMinSegRespected(t *testing.T) {
	// A stitch leaves the process minimum width on each side: the short
	// wire splits under the default process, and with a huge minimum
	// width (MinS pinned, so the conflicts stay the same) no stitch fits.
	l := layout.New("minseg")
	l.AddRect(geom.Rect{X0: 0, Y0: 0, X1: 300, Y1: 20})
	l.AddRect(geom.Rect{X0: 0, Y0: 60, X1: 40, Y1: 80})
	l.AddRect(geom.Rect{X0: 260, Y0: 60, X1: 300, Y1: 80})
	opts := BuildOptions{K: 4, MinS: l.Process.MinColoringDistance(4)}
	dg, err := BuildGraph(l, opts)
	if err != nil {
		t.Fatal(err)
	}
	if dg.Stats.StitchEdges == 0 {
		t.Fatalf("stats = %+v, want a split at the default minimum width", dg.Stats)
	}
	l.Process.MinWidth = 200
	dg, err = BuildGraph(l, opts)
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

// TestGridCellUnchangedOnBenchmarks pins the neighbour join's strip caps
// against the committed circuits: the join the build runs over a committed
// layout's rectangles (at mins+hp) and the one the verifier runs over its
// fragments' bounds (at mins) keep strip height r, at every K the tables
// use. The caps exist for sparse hostile inputs; they must not coarsen the
// strips real layouts are decomposed with. ("Grid" in the name is the
// strip partition, the one-column grid the join sweeps.)
func TestGridCellUnchangedOnBenchmarks(t *testing.T) {
	for name, l := range parallelCases(t) {
		var rects []geom.Rect
		for _, f := range l.Features {
			rects = append(rects, f.Rects...)
		}
		for k := 3; k <= 6; k++ {
			dg, err := BuildGraph(l, BuildOptions{K: k})
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range []struct {
				what  string
				r     int
				rects []geom.Rect
			}{
				{"build", dg.MinS + dg.HalfPitch, rects},
				{"verify", dg.MinS, fragmentBounds(dg)},
			} {
				// Doubling the height from r cuts the strip count, as the
				// rectangles span more than r.
				lo, hi := j.rects[0].Y0, j.rects[0].Y1
				for _, b := range j.rects {
					lo, hi = min(lo, b.Y0), max(hi, b.Y1)
				}
				want := (hi+j.r-lo)/j.r + 1
				if got := spatial.NewJoin(j.rects, j.r).Strips(); got != want {
					t.Errorf("%s K=%d %s join: %d strips, want %d at strip height %d", name, k, j.what, got, want, j.r)
				}
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

// TestParallelBuildSparseWorld: sparse layouts — tiny features 2^30
// apart, or at opposite corners of the coordinate range, where tiles of
// four radii (the parallel build's old tile order) would number past
// MaxInt32 — must not size anything by area. The neighbour join raises
// its strip height until it has at most a few strips per rectangle, so
// its tables stay O(n). The build must succeed, allocate under 1 MiB and
// equal the serial build. Each layout also carries a conflicting pair, so
// the graphs have an edge.
func TestParallelBuildSparseWorld(t *testing.T) {
	const half, far = 1 << 29, layout.CoordLimit - 100
	// pair returns two 20 nm squares 40 nm apart, the first at (x, y).
	pair := func(x, y int) []geom.Rect {
		return []geom.Rect{{X0: x, Y0: y, X1: x + 20, Y1: y + 20}, {X0: x + 60, Y0: y, X1: x + 80, Y1: y + 20}}
	}
	for _, tc := range []struct {
		name  string
		rects []geom.Rect
		huge  bool // tiles of four radii would number past MaxInt32
	}{
		{"wide", append(pair(-half, 0), geom.Rect{X0: half, Y0: 0, X1: half + 20, Y1: 20}), false},
		{"corners", append(pair(-far, -far), geom.Rect{X0: far - 20, Y0: far - 20, X1: far, Y1: far}), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := layout.New(tc.name)
			for _, r := range tc.rects {
				l.AddRect(r)
			}
			serial, err := BuildGraph(l, BuildOptions{K: 4, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if serial.Stats.ConflictEdges != 1 {
				t.Fatalf("stats = %+v, want one conflict edge", serial.Stats)
			}
			radius := serial.MinS + serial.HalfPitch
			world := l.Bounds().Expand(radius + 1)
			oldTiles := int64(world.Width()/(4*radius)+1) * int64(world.Height()/(4*radius)+1)
			if huge := oldTiles > math.MaxInt32; huge != tc.huge {
				t.Fatalf("%d tiles of four radii, past MaxInt32 = %v, want %v", oldTiles, huge, tc.huge)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			par, err := BuildGraph(l, BuildOptions{K: 4, Workers: 2})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if b := after.TotalAlloc - before.TotalAlloc; b >= 1<<20 {
				t.Fatalf("parallel build allocated %d bytes, want under 1 MiB", b)
			}
			graphsIdentical(t, serial, par)
		})
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
