package spatial

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"mpl/internal/geom"
)

func collect(g *Grid, q geom.Rect, radius int) []int {
	var out []int
	g.Near(q, radius, func(id int) { out = append(out, id) })
	sort.Ints(out)
	return out
}

func TestGridBasicQuery(t *testing.T) {
	g := NewGrid(geom.Rect{X0: 0, Y0: 0, X1: 1000, Y1: 1000}, 50, []geom.Rect{
		{X0: 0, Y0: 0, X1: 10, Y1: 10},
		{X0: 30, Y0: 0, X1: 40, Y1: 10},
		{X0: 500, Y0: 500, X1: 510, Y1: 510},
	})
	a, b, c := 0, 1, 2
	got := collect(g, g.Bounds(a), 25)
	if len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("Near = %v, want [a b]", got)
	}
	got = collect(g, g.Bounds(a), 19)
	if len(got) != 1 || got[0] != a {
		t.Fatalf("Near tight = %v, want only a (gap is exactly 20)", got)
	}
	got = collect(g, g.Bounds(a), 20)
	if len(got) != 2 {
		t.Fatalf("Near radius==gap = %v, want inclusive match", got)
	}
	got = collect(g, g.Bounds(c), 100)
	if len(got) != 1 || got[0] != c {
		t.Fatalf("far query = %v", got)
	}
}

func TestGridDeduplicates(t *testing.T) {
	// A rectangle spanning many cells must still be reported once.
	g := NewGrid(geom.Rect{X0: 0, Y0: 0, X1: 1000, Y1: 1000}, 10, []geom.Rect{{X0: 0, Y0: 0, X1: 900, Y1: 15}})
	id := 0
	got := collect(g, geom.Rect{X0: 400, Y0: 0, X1: 410, Y1: 10}, 5)
	if len(got) != 1 || got[0] != id {
		t.Fatalf("Near = %v, want exactly one report", got)
	}
}

func TestGridQueryOutsideWorld(t *testing.T) {
	g := NewGrid(geom.Rect{X0: 0, Y0: 0, X1: 100, Y1: 100}, 20, []geom.Rect{{X0: 90, Y0: 90, X1: 99, Y1: 99}})
	id := 0
	// Query beyond the world bounds should clamp, not panic.
	got := collect(g, geom.Rect{X0: 150, Y0: 150, X1: 160, Y1: 160}, 80)
	if len(got) != 1 || got[0] != id {
		t.Fatalf("clamped query = %v", got)
	}
	got = collect(g, geom.Rect{X0: -50, Y0: -50, X1: -40, Y1: -40}, 10)
	if len(got) != 0 {
		t.Fatalf("far negative query = %v, want empty", got)
	}
}

func TestGridDegenerateWorld(t *testing.T) {
	// A world smaller than one cell must still work.
	g := NewGrid(geom.Rect{X0: 0, Y0: 0, X1: 5, Y1: 5}, 100, []geom.Rect{{X0: 0, Y0: 0, X1: 2, Y1: 2}})
	id := 0
	got := collect(g, geom.Rect{X0: 3, Y0: 0, X1: 4, Y1: 2}, 1)
	if len(got) != 1 || got[0] != id {
		t.Fatalf("Near = %v", got)
	}
}

func TestGridMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	world := geom.Rect{X0: 0, Y0: 0, X1: 2000, Y1: 2000}
	var rects []geom.Rect
	for i := 0; i < 300; i++ {
		x, y := rng.Intn(1900), rng.Intn(1900)
		rects = append(rects, geom.Rect{X0: x, Y0: y, X1: x + 1 + rng.Intn(80), Y1: y + 1 + rng.Intn(80)})
	}
	g := NewGrid(world, 64, rects)
	for trial := 0; trial < 100; trial++ {
		x, y := rng.Intn(1900), rng.Intn(1900)
		q := geom.Rect{X0: x, Y0: y, X1: x + 1 + rng.Intn(60), Y1: y + 1 + rng.Intn(60)}
		radius := rng.Intn(150)
		var want []int
		rr := int64(radius) * int64(radius)
		for id, r := range rects {
			if geom.GapSq(q, r) <= rr {
				want = append(want, id)
			}
		}
		got := collect(g, q, radius)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d ids, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: got %v, want %v", trial, got, want)
			}
		}
	}
}

func TestGridStampWraparound(t *testing.T) {
	g := NewGrid(geom.Rect{X0: 0, Y0: 0, X1: 100, Y1: 100}, 10, []geom.Rect{{X0: 0, Y0: 0, X1: 5, Y1: 5}})
	g.visit = -2 // force wrap within two queries
	got := collect(g, geom.Rect{X0: 0, Y0: 0, X1: 5, Y1: 5}, 1)
	if len(got) != 1 {
		t.Fatalf("pre-wrap query = %v", got)
	}
	got = collect(g, geom.Rect{X0: 0, Y0: 0, X1: 5, Y1: 5}, 1)
	if len(got) != 1 {
		t.Fatalf("post-wrap query = %v", got)
	}
}

// TestGridExactRadiusBoundary: a neighbor at gap exactly equal to the query
// radius must be reported no matter where the cell boundaries fall.
// Regression test: the bucket scan used q.Expand(radius), whose half-open
// far edge could exclude the neighbor's first cell row when a boundary fell
// exactly between them — a false negative at the inclusive boundary of the
// GapSq predicate (found by FuzzApplyEdits via a VerifySolution recount
// that missed a conflict pair at gap exactly mins).
func TestGridExactRadiusBoundary(t *testing.T) {
	const radius = 80
	a := geom.Rect{X0: 100, Y0: 0, X1: 120, Y1: 20}
	b := geom.Rect{X0: 100, Y0: 100, X1: 120, Y1: 120} // vertical gap exactly 80
	for _, cell := range []int{radius - 1, radius, radius + 1, 33, 7} {
		// Sweep the world origin so every cell-boundary phase relative to
		// the gap is hit at least once.
		for off := 0; off <= cell; off++ {
			world := geom.Rect{X0: -200 - off, Y0: -200 - off, X1: 400, Y1: 400}
			g := NewGrid(world, cell, []geom.Rect{a, b})
			if got := collect(g, a, radius); len(got) != 2 {
				t.Fatalf("cell=%d off=%d: ids at gap exactly %d = %v, want both", cell, off, radius, got)
			}
		}
	}
}

// TestNewGridCapacityGuard pins the int32-id overflow guard: past the
// entry limit, NewGrid must fail loudly instead of wrapping ids silently
// (which would corrupt bucket contents with phantom small ids). The limit
// is lowered through the internal maxEntries var — the real one is 2^31−1.
func TestNewGridCapacityGuard(t *testing.T) {
	defer func(old int) { maxEntries = old }(maxEntries)
	maxEntries = 3
	world := geom.Rect{X0: 0, Y0: 0, X1: 100, Y1: 100}
	var rects []geom.Rect
	for i := 0; i < 3; i++ {
		rects = append(rects, geom.Rect{X0: i, Y0: 0, X1: i + 1, Y1: 1})
	}
	NewGrid(world, 10, rects).Release() // at the limit: fine
	defer func() {
		if recover() == nil {
			t.Fatal("grid past capacity did not panic")
		}
	}()
	NewGrid(world, 10, append(rects, geom.Rect{X0: 50, Y0: 50, X1: 51, Y1: 51}))
}

// TestGridEmpty: grids over no rectangles stay well-defined.
func TestGridEmpty(t *testing.T) {
	g := NewGrid(geom.Rect{X0: 0, Y0: 0, X1: 10, Y1: 10}, 5, nil)
	if got := collect(g, geom.Rect{X0: 1, Y0: 1, X1: 2, Y1: 2}, 100); len(got) != 0 {
		t.Fatalf("Near over an empty grid = %v", got)
	}
	q := g.NewQuerier()
	q.Near(geom.Rect{X0: 1, Y0: 1, X1: 2, Y1: 2}, 100, func(id int) { t.Fatalf("querier reported %d", id) })
	q.Release()
	g.Release()
}

// TestGridSparseWorldCapped: a world far larger than its entries warrant
// (two features 10⁷ apart) must not allocate a bucket per cell of the
// requested size — that was tens of gigabytes and an uncatchable
// out-of-memory crash. The cell grows until the table fits the cap, and
// Near still answers the exact distance predicate.
func TestGridSparseWorldCapped(t *testing.T) {
	world := geom.Rect{X0: -100, Y0: -100, X1: 10_000_100, Y1: 10_000_100}
	g := NewGrid(world, 80, []geom.Rect{
		{X0: 0, Y0: 0, X1: 20, Y1: 20},
		{X0: 10_000_000, Y0: 10_000_000, X1: 10_000_020, Y1: 10_000_020},
	})
	if n := len(g.off) - 1; n > 2*maxBucketsPerEntry {
		t.Fatalf("%d buckets for 2 entries, cap %d", n, 2*maxBucketsPerEntry)
	}
	if g.Cell() <= 80 {
		t.Fatalf("cell %d did not grow", g.Cell())
	}
	a, b := 0, 1
	if got := collect(g, g.Bounds(a), 80); len(got) != 1 || got[0] != a {
		t.Fatalf("Near(a) = %v, want only a", got)
	}
	if got := collect(g, g.Bounds(b), 80); len(got) != 1 || got[0] != b {
		t.Fatalf("Near(b) = %v, want only b", got)
	}
	if got := collect(g, geom.Rect{X0: 100, Y0: 0, X1: 120, Y1: 20}, 80); len(got) != 1 || got[0] != a {
		t.Fatalf("Near at gap exactly 80 = %v, want a", got)
	}
}

// TestGridCappedMatchesBruteForce: a grid whose cell grew under the bucket
// cap reports exactly what a brute-force scan does.
func TestGridCappedMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	world := geom.Rect{X0: 0, Y0: 0, X1: 200_000, Y1: 200_000}
	var rects []geom.Rect
	for i := 0; i < 40; i++ {
		x, y := rng.Intn(199_000), rng.Intn(199_000)
		rects = append(rects, geom.Rect{X0: x, Y0: y, X1: x + 1 + rng.Intn(900), Y1: y + 1 + rng.Intn(900)})
	}
	g := NewGrid(world, 16, rects)
	if g.Cell() == 16 {
		t.Fatal("test world too dense to exercise the cap")
	}
	for trial := 0; trial < 200; trial++ {
		q := rects[rng.Intn(len(rects))]
		radius := rng.Intn(40_000)
		var want []int
		rr := int64(radius) * int64(radius)
		for id, r := range rects {
			if geom.GapSq(q, r) <= rr {
				want = append(want, id)
			}
		}
		if got := collect(g, q, radius); !slices.Equal(got, want) {
			t.Fatalf("trial %d: got %v, want %v", trial, got, want)
		}
	}
}
