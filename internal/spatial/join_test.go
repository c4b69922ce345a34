package spatial

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"mpl/internal/geom"
)

// pairsOf joins rects at radius r and returns the pairs, checked by
// sweepAll.
func pairsOf(t *testing.T, rects []geom.Rect, r int) []pair {
	t.Helper()
	return sweepAll(t, NewJoin(rects, r))
}

// TestGridBasicQuery: the pair predicate is the squared gap at most r²,
// inclusive at gap exactly r.
func TestGridBasicQuery(t *testing.T) {
	rects := []geom.Rect{
		{X0: 0, Y0: 0, X1: 10, Y1: 10},
		{X0: 30, Y0: 0, X1: 40, Y1: 10},
		{X0: 500, Y0: 500, X1: 510, Y1: 510},
	}
	ab := []pair{{0, 1}}
	if got := pairsOf(t, rects, 25); !slices.Equal(got, ab) {
		t.Fatalf("r=25: %v, want %v", got, ab)
	}
	if got := pairsOf(t, rects, 19); len(got) != 0 {
		t.Fatalf("r=19: %v, want none (gap is exactly 20)", got)
	}
	if got := pairsOf(t, rects, 20); !slices.Equal(got, ab) {
		t.Fatalf("r=gap: %v, want the inclusive match %v", got, ab)
	}
	if got := pairsOf(t, rects, 700); len(got) != 3 {
		t.Fatalf("r=700: %v, want all three pairs", got)
	}
}

// TestGridDeduplicates: a rectangle spanning many strips meets each of its
// neighbours in several of them, and each pair is still reported once.
func TestGridDeduplicates(t *testing.T) {
	rects := []geom.Rect{{X0: 0, Y0: 0, X1: 15, Y1: 900}}
	for y := 0; y < 900; y += 45 {
		rects = append(rects, geom.Rect{X0: 18, Y0: y, X1: 30, Y1: y + 40})
	}
	j := NewJoin(rects, 10)
	if j.height != 10 {
		t.Fatalf("strip height %d, want 10", j.height)
	}
	got := sweepAll(t, j) // fails on a pair reported twice
	if want := bruteJoin(rects, 10); !slices.Equal(got, want) {
		t.Fatalf("join %v, brute force %v", got, want)
	}
	if len(got) != 2*(len(rects)-1)-1 {
		t.Fatalf("%d pairs, want each of %d neighbours with the wire plus adjacent neighbours", len(got), len(rects)-1)
	}
}

// TestGridQueryOutsideWorld: a join has no world box to clamp against —
// its strips start at the lowest rectangle — so negative coordinates and
// rectangles at opposite corners of a layout's ±2^30 range join like any
// others.
func TestGridQueryOutsideWorld(t *testing.T) {
	const far = 1<<30 - 100
	rects := []geom.Rect{
		{X0: -50, Y0: -50, X1: -40, Y1: -40},
		{X0: -30, Y0: -50, X1: -20, Y1: -40},
		{X0: -far, Y0: -far, X1: -far + 20, Y1: -far + 20},
		{X0: -far + 60, Y0: -far, X1: -far + 80, Y1: -far + 20},
		{X0: far - 20, Y0: far - 20, X1: far, Y1: far},
	}
	want := []pair{{0, 1}, {2, 3}}
	if got := pairsOf(t, rects, 40); !slices.Equal(got, want) {
		t.Fatalf("join %v, want %v", got, want)
	}
}

// TestGridDegenerateWorld: a radius beyond the rectangles' extent puts
// every reference point in the first strip, and a zero radius still
// reports touching and overlapping rectangles, but not rectangles 1 nm
// apart.
func TestGridDegenerateWorld(t *testing.T) {
	rects := []geom.Rect{
		{X0: 0, Y0: 0, X1: 2, Y1: 2},
		{X0: 2, Y0: 0, X1: 4, Y1: 2}, // touches 0
		{X0: 5, Y0: 0, X1: 6, Y1: 2}, // 1 nm from 1
		{X0: 1, Y0: 1, X1: 3, Y1: 3}, // overlaps 0 and 1
	}
	if got := pairsOf(t, rects, 100); len(got) != 6 {
		t.Fatalf("r=100: %v, want all six pairs", got)
	}
	want := []pair{{0, 1}, {0, 3}, {1, 3}}
	if got := pairsOf(t, rects, 0); !slices.Equal(got, want) {
		t.Fatalf("r=0: %v, want %v", got, want)
	}
	if got := pairsOf(t, rects[:1], 100); len(got) != 0 {
		t.Fatalf("one rectangle: %v, want none", got)
	}
}

func TestGridMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var rects []geom.Rect
	for i := 0; i < 300; i++ {
		x, y := rng.Intn(1900), rng.Intn(1900)
		rects = append(rects, geom.Rect{X0: x, Y0: y, X1: x + 1 + rng.Intn(80), Y1: y + 1 + rng.Intn(80)})
	}
	for trial := 0; trial < 40; trial++ {
		checkJoinMatchesReference(t, rects, rng.Intn(150))
	}
}

// TestGridStampWraparound: the bucket grid's per-query visit stamps had to
// survive wraparound; the join's only state between sweeps is the sorted
// order of each strip. Sweeping a strip again, sweeping strips in reverse,
// and sweeping them from two goroutines at once all report the same pairs.
func TestGridStampWraparound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var rects []geom.Rect
	for i := 0; i < 200; i++ {
		x, y := rng.Intn(1000), rng.Intn(1000)
		rects = append(rects, geom.Rect{X0: x, Y0: y, X1: x + 1 + rng.Intn(40), Y1: y + 1 + rng.Intn(40)})
	}
	j := NewJoin(rects, 30)
	first := sweepAll(t, j)
	if again := sweepAll(t, j); !slices.Equal(again, first) {
		t.Fatalf("second sweep %v, first %v", again, first)
	}
	perStrip := make([][]pair, j.Strips())
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := j.Strips() - 1 - w; s >= 0; s -= 2 {
				j.Sweep(s, func(a, b int32) { perStrip[s] = append(perStrip[s], orderedPair(a, b)) })
			}
		}()
	}
	wg.Wait()
	got := slices.Concat(perStrip...)
	slices.SortFunc(got, comparePairs)
	if !slices.Equal(got, first) {
		t.Fatalf("concurrent reverse sweep %v, serial %v", got, first)
	}
}

// TestGridExactRadiusBoundary: a neighbor at gap exactly r must be
// reported wherever the strip boundaries fall. A third rectangle moves the
// strips' origin through every phase relative to the gap, so the pair's
// reference point lands on, just before and just after a boundary. (The
// bucket grid once missed this pair when a cell boundary fell exactly
// between the two — found by FuzzApplyEdits via a VerifySolution recount.)
func TestGridExactRadiusBoundary(t *testing.T) {
	const r = 80
	a := geom.Rect{X0: 100, Y0: 0, X1: 120, Y1: 20}
	for _, b := range []geom.Rect{
		{X0: 100, Y0: 100, X1: 120, Y1: 120}, // vertical gap exactly r
		{X0: 200, Y0: 0, X1: 220, Y1: 20},    // horizontal gap exactly r
		{X0: 168, Y0: 80, X1: 190, Y1: 100},  // diagonal 48² + 64² = r²
	} {
		for off := 0; off <= r; off++ {
			origin := geom.Rect{X0: -1000, Y0: -200 - off, X1: -990, Y1: -190 - off}
			got := pairsOf(t, []geom.Rect{origin, a, b}, r)
			if !slices.Equal(got, []pair{{1, 2}}) {
				t.Fatalf("b=%v off=%d: pairs %v, want exactly (1,2)", b, off, got)
			}
		}
	}
}

// TestNewGridCapacityGuard pins the int32-id overflow guard: past the
// entry limit, NewJoin must fail loudly instead of wrapping ids silently
// (which would report phantom pairs of small ids). The limit is lowered
// through the internal maxEntries var — the real one is 2^31−1. The x0
// span must fit the keys' 32 bits too.
func TestNewGridCapacityGuard(t *testing.T) {
	mustPanic := func(what string, rects []geom.Rect) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		NewJoin(rects, 10)
	}
	defer func(old int) { maxEntries = old }(maxEntries)
	maxEntries = 3
	var rects []geom.Rect
	for i := 0; i < 3; i++ {
		rects = append(rects, geom.Rect{X0: i, Y0: 0, X1: i + 1, Y1: 1})
	}
	NewJoin(rects, 10) // at the limit: fine
	mustPanic("join past capacity", append(rects, geom.Rect{X0: 50, Y0: 50, X1: 51, Y1: 51}))
	maxEntries = MaxEntries
	mustPanic("x0 span past 32 bits", []geom.Rect{
		{X0: -3_000_000_000, Y0: 0, X1: -2_999_999_999, Y1: 1},
		{X0: 3_000_000_000, Y0: 0, X1: 3_000_000_001, Y1: 1},
	})
	wide := []geom.Rect{
		{X0: math.MinInt32 + 1, Y0: 0, X1: math.MinInt32 + 2, Y1: 1},
		{X0: math.MaxInt32 - 1, Y0: 0, X1: math.MaxInt32, Y1: 1},
	}
	if got := pairsOf(t, wide, 10); len(got) != 0 {
		t.Fatalf("a 2^32-wide pair: %v, want none", got)
	}
}

// TestGridEmpty: joins over no rectangles and one rectangle stay
// well-defined and report nothing.
func TestGridEmpty(t *testing.T) {
	j := NewJoin(nil, 5)
	if j.Strips() != 0 {
		t.Fatalf("%d strips over no rectangles", j.Strips())
	}
	j = NewJoin([]geom.Rect{{X0: 1, Y0: 1, X1: 2, Y1: 2}}, 5)
	for s := range j.Strips() {
		j.Sweep(s, func(a, b int32) { t.Fatalf("one rectangle reported (%d,%d)", a, b) })
	}
}

// TestGridSparseWorldCapped: two features 10⁷ apart must not get a strip
// per r of the distance between them — 125k strips for two rectangles.
// The height grows until the strips fit the cap, the partition allocates
// a few hundred bytes, and the join still answers the exact predicate.
func TestGridSparseWorldCapped(t *testing.T) {
	rects := []geom.Rect{
		{X0: 0, Y0: 0, X1: 20, Y1: 20},
		{X0: 10_000_000, Y0: 10_000_000, X1: 10_000_020, Y1: 10_000_020},
		{X0: 100, Y0: 0, X1: 120, Y1: 20}, // gap exactly 80 from the first
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	j := NewJoin(rects, 80)
	runtime.ReadMemStats(&after)
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes > 4096 {
		t.Fatalf("NewJoin allocated %d bytes for 3 rectangles", bytes)
	}
	if n := j.Strips(); n > len(rects)*maxStripsPerEntry {
		t.Fatalf("%d strips for %d entries, cap %d", n, len(rects), len(rects)*maxStripsPerEntry)
	}
	if j.height <= 80 {
		t.Fatalf("strip height %d did not grow", j.height)
	}
	if got := sweepAll(t, j); !slices.Equal(got, []pair{{0, 2}}) {
		t.Fatalf("pairs %v, want only the pair at gap exactly 80", got)
	}
}

// TestGridCappedMatchesBruteForce: a join whose strips grew under the caps
// reports exactly what a brute-force scan does.
func TestGridCappedMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var rects []geom.Rect
	for i := 0; i < 40; i++ {
		x, y := rng.Intn(199_000), rng.Intn(199_000)
		rects = append(rects, geom.Rect{X0: x, Y0: y, X1: x + 1 + rng.Intn(900), Y1: y + 1 + rng.Intn(900)})
	}
	capped := 0
	for trial := 0; trial < 200; trial++ {
		r := rng.Intn(40_000)
		if trial%2 == 0 {
			r = rng.Intn(60)
		}
		if NewJoin(rects, r).height > max(r, 1) {
			capped++
		}
		checkJoinMatchesReference(t, rects, r)
	}
	if capped == 0 {
		t.Fatal("test world too dense to exercise the cap")
	}
}
