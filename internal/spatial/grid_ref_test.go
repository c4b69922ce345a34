package spatial

// Differential check of the CSR grid against the append-bucket grid it
// replaced, kept here as refGrid: built at the same cell size over the same
// rectangles, both must report the same ids in the same order from every
// Querier.Near, Querier.NearAfter must report that list without the ids at
// or below its bound, and the id set must be the brute-force distance
// predicate. Where the old grid's cell choice did not blow past the entry
// cap, the new one must choose the same cell.

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"mpl/internal/geom"
)

// refGrid is the incremental grid this package shipped before the CSR
// build: one append-grown bucket slice per cell, filled by Insert, with the
// bucket cap (but not the entry cap) on its cell size.
type refGrid struct {
	cell    int
	minX    int
	minY    int
	cols    int
	rows    int
	buckets [][]int32
	bounds  []geom.Rect
	stamp   []int32
	visit   int32
}

func newRefGrid(world geom.Rect, cell int, capHint int) *refGrid {
	g := refGridShape(world, cell, capHint)
	g.buckets = make([][]int32, g.cols*g.rows)
	return g
}

// refGridShape is newRefGrid without the bucket table.
func refGridShape(world geom.Rect, cell int, capHint int) *refGrid {
	if cell < 1 {
		cell = 1
	}
	limit := maxBucketsPerEntry * max(capHint, 1)
	cols, rows := gridDims(world, cell)
	for cols > limit/rows {
		cell *= 2
		cols, rows = gridDims(world, cell)
	}
	return &refGrid{
		cell: cell,
		minX: world.X0,
		minY: world.Y0,
		cols: cols,
		rows: rows,
	}
}

func (g *refGrid) cellRange(r geom.Rect) (c0, r0, c1, r1 int) {
	clamp := func(c, n int) int { return min(max(c, 0), n-1) }
	c0 = clamp((r.X0-g.minX)/g.cell, g.cols)
	c1 = clamp((r.X1-1-g.minX)/g.cell, g.cols)
	r0 = clamp((r.Y0-g.minY)/g.cell, g.rows)
	r1 = clamp((r.Y1-1-g.minY)/g.cell, g.rows)
	return
}

func (g *refGrid) Insert(r geom.Rect) int {
	id := int32(len(g.bounds))
	g.bounds = append(g.bounds, r)
	g.stamp = append(g.stamp, 0)
	c0, r0, c1, r1 := g.cellRange(r)
	for row := r0; row <= r1; row++ {
		for col := c0; col <= c1; col++ {
			idx := row*g.cols + col
			g.buckets[idx] = append(g.buckets[idx], id)
		}
	}
	return int(id)
}

func (g *refGrid) entries() int {
	total := 0
	for _, b := range g.buckets {
		total += len(b)
	}
	return total
}

// wouldHold returns how many entries Inserting rects would make; it needs
// no bucket table.
func (g *refGrid) wouldHold(rects []geom.Rect) int {
	total := 0
	for _, r := range rects {
		c0, r0, c1, r1 := g.cellRange(r)
		total += max(c1-c0+1, 0) * max(r1-r0+1, 0)
	}
	return total
}

func (g *refGrid) Near(q geom.Rect, radius int, fn func(id int)) {
	g.visit++
	rr := int64(radius) * int64(radius)
	c0, r0, c1, r1 := g.cellRange(q.Expand(radius + 1))
	for row := r0; row <= r1; row++ {
		for col := c0; col <= c1; col++ {
			for _, id := range g.buckets[row*g.cols+col] {
				if g.stamp[id] == g.visit {
					continue
				}
				g.stamp[id] = g.visit
				if geom.GapSq(q, g.bounds[id]) <= rr {
					fn(int(id))
				}
			}
		}
	}
}

type gridQuery struct {
	r      geom.Rect
	radius int
	after  int // an id to check NearAfter at, besides -1 and len(rects)-1
}

// checkGridMatchesReference builds both grids over rects and runs every
// query through Querier.Near and refGrid.Near, and through
// Querier.NearAfter at after ∈ {-1, qu.after, len(rects)-1}.
func checkGridMatchesReference(t *testing.T, world geom.Rect, cell int, rects []geom.Rect, queries []gridQuery) {
	t.Helper()
	g := NewGrid(world, cell, rects)
	defer g.Release()
	q := g.NewQuerier()
	defer q.Release()
	if total := len(g.ids); total > maxBucketsPerEntry*max(len(rects), 1) {
		t.Fatalf("%d entries for %d rects, cap %d per rect", total, len(rects), maxBucketsPerEntry)
	}
	if asked := refGridShape(world, cell, len(rects)); asked.cell != g.Cell() && asked.wouldHold(rects) <= maxBucketsPerEntry*max(len(rects), 1) {
		t.Fatalf("cell %d, want the reference's %d: the entry cap fired below its bound", g.Cell(), asked.cell)
	}
	ref := newRefGrid(world, g.Cell(), len(rects))
	if ref.cell != g.Cell() {
		t.Fatalf("reference at cell %d chose %d", g.Cell(), ref.cell)
	}
	for _, r := range rects {
		ref.Insert(r)
	}
	if ref.entries() != len(g.ids) {
		t.Fatalf("%d entries, reference %d", len(g.ids), ref.entries())
	}
	var got, want, half, wantHalf []int
	for k, qu := range queries {
		got, want = got[:0], want[:0]
		q.Near(qu.r, qu.radius, func(id int) { got = append(got, id) })
		ref.Near(qu.r, qu.radius, func(id int) { want = append(want, id) })
		if !slices.Equal(got, want) {
			t.Fatalf("query %d %v r=%d: Near %v, reference %v", k, qu.r, qu.radius, got, want)
		}
		for _, after := range []int{-1, qu.after, len(rects) - 1} {
			half, wantHalf = half[:0], wantHalf[:0]
			q.NearAfter(qu.r, qu.radius, after, func(id int) { half = append(half, id) })
			for _, id := range want {
				if id > after {
					wantHalf = append(wantHalf, id)
				}
			}
			if !slices.Equal(half, wantHalf) {
				t.Fatalf("query %d %v r=%d: NearAfter(%d) %v, reference above %d %v", k, qu.r, qu.radius, after, half, after, wantHalf)
			}
		}
		var brute []int
		rr := int64(qu.radius) * int64(qu.radius)
		for id, r := range rects {
			if geom.GapSq(qu.r, r) <= rr {
				brute = append(brute, id)
			}
		}
		slices.Sort(got)
		if !slices.Equal(got, brute) {
			t.Fatalf("query %d %v r=%d: Near %v, brute force %v", k, qu.r, qu.radius, got, brute)
		}
	}
}

func TestGridMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pick := rand.New(rand.NewSource(4)) // NearAfter ids; rng's layouts stay as they were
	for trial := 0; trial < 200; trial++ {
		span := 100 + rng.Intn(5000)
		n := rng.Intn(120)
		rects := make([]geom.Rect, n)
		for i := range rects {
			x, y := rng.Intn(span), rng.Intn(span)
			w, h := 1+rng.Intn(span/4+1), 1+rng.Intn(span/4+1)
			if rng.Intn(10) == 0 { // a world-spanning rectangle
				x, w = 0, span
			}
			rects[i] = geom.Rect{X0: x, Y0: y, X1: x + w, Y1: y + h}
		}
		world := geom.Rect{X0: -10, Y0: -10, X1: 2 * span, Y1: 2 * span}
		queries := make([]gridQuery, 30)
		for k := range queries {
			x, y := rng.Intn(span), rng.Intn(span)
			queries[k] = gridQuery{geom.Rect{X0: x, Y0: y, X1: x + 1 + rng.Intn(50), Y1: y + 1 + rng.Intn(50)}, rng.Intn(span / 4), pick.Intn(max(n, 1))}
		}
		t.Run(fmt.Sprint(trial), func(t *testing.T) {
			checkGridMatchesReference(t, world, 1+rng.Intn(200), rects, queries)
		})
	}
}

// TestGridEntryCap: a thousand overlapping rectangles that each span
// nearly the whole world. The bucket cap alone left ~25 buckets per
// rectangle, nearly every one of which held every id: the append-bucket
// grid made 24 million entries and allocated ~290 MB for this small
// input. The entry cap coarsens
// the cell until the buckets hold at most maxBucketsPerEntry entries per
// rectangle — a few hundred kilobytes — and Near still answers the exact
// predicate.
func TestGridEntryCap(t *testing.T) {
	const n = 1000
	world := geom.Rect{X0: 0, Y0: 0, X1: 100_000, Y1: 100_000}
	rects := make([]geom.Rect, n)
	for i := range rects {
		rects[i] = geom.Rect{X0: i, Y0: 2 * i, X1: 99_000 + i, Y1: 98_000 + i}
	}
	queries := []gridQuery{
		{geom.Rect{X0: 50_000, Y0: 50_000, X1: 50_010, Y1: 50_010}, 80, 500},
		{geom.Rect{X0: 99_500, Y0: 0, X1: 99_600, Y1: 10}, 600, 0},
		{geom.Rect{X0: 0, Y0: 99_990, X1: 10, Y1: 100_000}, 2_000, 998},
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g := NewGrid(world, 80, rects)
	runtime.ReadMemStats(&after)
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb > 4 {
		t.Fatalf("NewGrid allocated %.1f MB", mb)
	}
	if total := len(g.ids); total > maxBucketsPerEntry*n {
		t.Fatalf("%d entries for %d rects, cap %d", total, n, maxBucketsPerEntry*n)
	}
	if g.Cell() <= 80 {
		t.Fatalf("cell %d did not grow", g.Cell())
	}
	g.Release()
	checkGridMatchesReference(t, world, 80, rects, queries)
}

// FuzzGridMatchesReference decodes a cell size, rectangles and queries from
// bytes and runs checkGridMatchesReference. Layout: byte 0 is the cell
// (1..256), byte 1 the rectangle count (mod 48); each rectangle is four
// bytes x, y, w, h on an 8 nm lattice (each side at least 1 nm), where
// w = 0xFF spans the world; the rest are up to 64 five-byte queries x, y,
// w, h, radius. A query's NearAfter id is (x+y) mod (count+1) − 1.
func FuzzGridMatchesReference(f *testing.F) {
	f.Add([]byte{80, 3, 0, 0, 2, 2, 10, 0, 2, 2, 60, 60, 1, 1, 0, 0, 1, 1, 20})
	f.Add([]byte{1, 2, 0, 0, 0xFF, 4, 5, 5, 0, 3, 1, 1, 1, 1, 0})
	f.Add([]byte{200, 0, 1, 1, 1, 1, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		const unit, span = 8, 256 * 8
		cell := int(data[0]) + 1
		n := int(data[1]) % 48
		data = data[2:]
		rects := make([]geom.Rect, 0, n)
		for len(rects) < n && len(data) >= 4 {
			x, y := int(data[0])*unit, int(data[1])*unit
			w, h := 1+int(data[2])*unit, 1+int(data[3])*unit
			if data[2] == 0xFF {
				x, w = -unit, span+2*unit
			}
			rects = append(rects, geom.Rect{X0: x, Y0: y, X1: x + w, Y1: y + h})
			data = data[4:]
		}
		var queries []gridQuery
		for len(data) >= 5 && len(queries) < 64 {
			x, y := int(data[0])*unit, int(data[1])*unit
			r := geom.Rect{X0: x, Y0: y, X1: x + 1 + int(data[2]), Y1: y + 1 + int(data[3])}
			queries = append(queries, gridQuery{r, int(data[4]) * unit, (int(data[0])+int(data[1]))%(len(rects)+1) - 1})
			data = data[5:]
		}
		world := geom.Rect{X0: -unit, Y0: -unit, X1: span + 2*unit, Y1: span + 2*unit}
		checkGridMatchesReference(t, world, cell, rects, queries)
	})
}
