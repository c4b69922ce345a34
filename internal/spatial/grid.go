// Package spatial provides a uniform grid index over rectangles for fast
// neighborhood queries. The decomposer uses it to find all features within
// the minimum coloring distance (conflict edges) and within the
// color-friendly band (mins, mins+hp) without an O(n²) scan.
//
// A Grid is built once, by NewGrid, from the full rectangle slice as a
// two-pass CSR layout: count the entries per bucket, prefix-sum them into
// offsets, fill one id array. The grid is immutable afterwards; its ids are
// the rectangles' positions in the slice.
//
// The grid's arrays — bucket offsets, bucket ids and the visit stamps that
// deduplicate a query — are recycled through process-wide pools: grids and
// queriers are per-build objects, but their arrays are size-stable across
// repeated service requests, so Release-ing them keeps steady-state graph
// builds from re-allocating them every time.
package spatial

import (
	"fmt"
	"math"
	"sync"

	"mpl/internal/geom"
)

// MaxEntries is the largest number of rectangles one Grid can hold: bucket
// entries are int32 IDs, so anything past 2^31−1 would silently truncate.
// NewGrid enforces it with a diagnosing panic — million-feature layouts
// stay far below it, but the guard turns a would-be silent wraparound
// (phantom neighbors, missed conflicts) into an immediate, attributable
// failure.
const MaxEntries = math.MaxInt32

// maxEntries is MaxEntries behind a var, so the guard test can lower it to
// an addressable size instead of allocating 2^31 rectangles.
var maxEntries = MaxEntries

// int32Pool recycles []int32 backing arrays of one role across grids. Each
// role (stamps, offsets, ids) has its own pool, so a pool's arrays stay
// near one size instead of a small array being fetched and dropped by a
// large grid.
type int32Pool struct{ p sync.Pool }

var stampPool, offPool, idPool int32Pool

// get leases a zeroed array of length n.
func (p *int32Pool) get(n int) []int32 {
	bp, _ := p.p.Get().(*[]int32)
	if bp == nil || cap(*bp) < n {
		return make([]int32, n)
	}
	b := (*bp)[:n]
	clear(b)
	return b
}

func (p *int32Pool) put(b []int32) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	p.p.Put(&b)
}

// maxBucketsPerEntry caps a grid at this many buckets per rectangle, and
// at this many bucket entries per rectangle. Without the first cap the
// table covers the world box at the requested cell size, so two features
// far apart — one small request — could ask for billions of buckets.
// Without the second, rectangles spanning many cells fill the table
// quadratically: a thousand overlapping world-sized rectangles put every
// id in every bucket. The grids built over the committed benchmark
// circuits stay well inside both caps (K = 3 to 6), so neither changes
// their cell size (TestGridCellUnchangedOnBenchmarks in internal/core pins
// that).
const maxBucketsPerEntry = 64

// Grid is a uniform bucket grid over rectangle bounding boxes. Each entry is
// identified by its index in the slice the grid was built from. Entries are
// bucketed by every cell their bounding box overlaps, so queries must
// deduplicate; the Grid handles that internally with a visit-stamp array.
type Grid struct {
	cell   int // cell edge length
	minX   int
	minY   int
	cols   int
	rows   int
	off    []int32     // bucket b holds ids[off[b]:off[b+1]]
	ids    []int32     // ascending within each bucket
	bounds []geom.Rect // per-ID bounding boxes (the caller's slice)
	stamp  []int32     // visit stamps for deduplication
	visit  int32
}

// NewGrid indexes rects over the world rectangle; rects[i] gets ID i. The
// grid keeps rects as its bounds table, so the caller must not modify the
// slice while the grid is in use. The cell size should be on the order of
// the query radius; the decomposer uses mins+hp. When the world is sparse —
// more than maxBucketsPerEntry buckets per rectangle — or the rectangles
// span so many cells that the buckets would hold more than
// maxBucketsPerEntry entries per rectangle, the cell size doubles until
// both fit; Near stays an exact distance predicate, so only the number of
// candidates scanned changes. NewGrid panics with a diagnosis when rects
// holds more than MaxEntries rectangles.
func NewGrid(world geom.Rect, cell int, rects []geom.Rect) *Grid {
	n := len(rects)
	if n > maxEntries {
		panic(fmt.Sprintf("spatial: %d rectangles exceed the grid capacity of %d; int32 ids cannot address more", n, maxEntries))
	}
	if cell < 1 {
		cell = 1
	}
	limit := maxBucketsPerEntry * max(n, 1)
	cols, rows := gridDims(world, cell)
	for cols > limit/rows {
		cell *= 2
		cols, rows = gridDims(world, cell)
	}
	g := &Grid{cell: cell, minX: world.X0, minY: world.Y0, cols: cols, rows: rows, bounds: rects}
	// The entry total is at least n (every rectangle covers one bucket
	// once the cell spans the world), so the loop ends; capping it at
	// MaxInt32 keeps every offset addressable by an int32.
	entryLimit := min(int64(limit), math.MaxInt32)
	total := g.entries()
	for total > entryLimit {
		g.cell *= 2
		g.cols, g.rows = gridDims(world, g.cell)
		total = g.entries()
	}

	// Pass one counts each bucket's entries into off[b+1]; the prefix sum
	// turns the counts into start offsets; pass two fills the ids, walking
	// rectangles in ID order so each bucket lists its ids ascending, which
	// fixes the order Near reports them in.
	nb := g.cols * g.rows
	g.off = offPool.get(nb + 1)
	for _, r := range rects {
		c0, r0, c1, r1 := g.cellRange(r)
		for row := r0; row <= r1; row++ {
			for col := c0; col <= c1; col++ {
				g.off[row*g.cols+col+1]++
			}
		}
	}
	for b := 1; b <= nb; b++ {
		g.off[b] += g.off[b-1]
	}
	g.ids = idPool.get(int(total))
	for id, r := range rects {
		c0, r0, c1, r1 := g.cellRange(r)
		for row := r0; row <= r1; row++ {
			for col := c0; col <= c1; col++ {
				b := row*g.cols + col
				g.ids[g.off[b]] = int32(id)
				g.off[b]++
			}
		}
	}
	// The fill advanced each off[b] to its bucket's end, which is the next
	// bucket's start: shift back by one.
	copy(g.off[1:], g.off[:nb])
	g.off[0] = 0
	g.stamp = stampPool.get(n)
	return g
}

// entries returns the number of bucket entries the grid's rectangles
// occupy at its current cell size.
func (g *Grid) entries() int64 {
	var total int64
	for _, r := range g.bounds {
		c0, r0, c1, r1 := g.cellRange(r)
		if c1 >= c0 && r1 >= r0 {
			total += int64(c1-c0+1) * int64(r1-r0+1)
		}
	}
	return total
}

// gridDims returns the column and row counts (each ≥ 1) covering world at
// the given cell size.
func gridDims(world geom.Rect, cell int) (cols, rows int) {
	cols = max((world.Width()+cell-1)/cell, 1)
	rows = max((world.Height()+cell-1)/cell, 1)
	return cols, rows
}

// Cell returns the cell edge length the grid uses: the requested size, or
// a larger one when NewGrid capped the bucket or entry count.
func (g *Grid) Cell() int { return g.cell }

// Release returns the grid's bucket and visit-stamp arrays to the
// process-wide pools. Call it when the grid is done (end of a graph build,
// end of a verification pass), after every Querier over it is released;
// the grid must not be queried afterwards. Releasing is optional — an
// un-released grid is merely garbage-collected without recycling its
// arrays.
func (g *Grid) Release() {
	offPool.put(g.off)
	idPool.put(g.ids)
	stampPool.put(g.stamp)
	g.off, g.ids, g.stamp = nil, nil, nil
}

func (g *Grid) clampCol(c int) int {
	if c < 0 {
		return 0
	}
	if c >= g.cols {
		return g.cols - 1
	}
	return c
}

func (g *Grid) clampRow(r int) int {
	if r < 0 {
		return 0
	}
	if r >= g.rows {
		return g.rows - 1
	}
	return r
}

// cellRange returns the inclusive cell index range overlapped by r.
func (g *Grid) cellRange(r geom.Rect) (c0, r0, c1, r1 int) {
	c0 = g.clampCol((r.X0 - g.minX) / g.cell)
	c1 = g.clampCol((r.X1 - 1 - g.minX) / g.cell)
	r0 = g.clampRow((r.Y0 - g.minY) / g.cell)
	r1 = g.clampRow((r.Y1 - 1 - g.minY) / g.cell)
	return
}

// Bounds returns the bounding box stored for id.
func (g *Grid) Bounds(id int) geom.Rect { return g.bounds[id] }

// Near calls fn for every stored ID whose bounding box gap distance to the
// query rectangle is at most radius (squared comparison, exact integer
// arithmetic). Each ID is reported once per query; the query ID itself is
// reported too if it matches, so callers filter self-pairs. Near mutates the
// grid's visit stamps, so it is not safe for concurrent use — concurrent
// readers use per-goroutine Queriers instead.
func (g *Grid) Near(q geom.Rect, radius int, fn func(id int)) {
	g.near(g.stamp, &g.visit, q, radius, fn)
}

// near is the shared query kernel: the caller supplies the stamp array and
// visit counter, so Grid.Near (grid-owned stamps) and Querier.Near
// (per-goroutine stamps) enumerate identically — same bucket scan order,
// same per-query deduplication — over the same immutable bucket structure.
func (g *Grid) near(stamp []int32, visit *int32, q geom.Rect, radius int, fn func(id int)) {
	*visit++
	if *visit == 0 { // stamp wrapped; reset
		for i := range stamp {
			stamp[i] = 0
		}
		*visit = 1
	}
	rr := int64(radius) * int64(radius)
	// Expand by radius+1, not radius: rectangles are half-open, so a
	// neighbor at gap exactly radius starts at the first coordinate
	// *outside* q.Expand(radius), and when a cell boundary falls there the
	// bucket scan would skip its cells entirely — a false negative at the
	// inclusive boundary of the distance predicate below. The extra cell
	// ring only adds candidates; GapSq still decides.
	expanded := q.Expand(radius + 1)
	c0, r0, c1, r1 := g.cellRange(expanded)
	for row := r0; row <= r1; row++ {
		for col := c0; col <= c1; col++ {
			b := row*g.cols + col
			for _, id := range g.ids[g.off[b]:g.off[b+1]] {
				if stamp[id] == *visit {
					continue
				}
				stamp[id] = *visit
				if geom.GapSq(q, g.bounds[id]) <= rr {
					fn(int(id))
				}
			}
		}
	}
}

// Querier is a read-only query cursor over a Grid with its own visit-stamp
// state, so multiple goroutines can run Near queries over one shared grid
// concurrently (the parallel graph-construction shards of internal/core).
type Querier struct {
	g     *Grid
	stamp []int32
	visit int32
}

// NewQuerier returns an independent query cursor over the grid. Each
// goroutine gets its own; a single Querier is not safe for concurrent use
// with itself. Pair with Release to recycle its stamp array across builds.
func (g *Grid) NewQuerier() *Querier {
	return &Querier{g: g, stamp: stampPool.get(len(g.bounds))}
}

// Release returns the querier's stamp array to the process-wide pool. The
// querier must not be used afterwards. Optional, like Grid.Release.
func (q *Querier) Release() {
	stampPool.put(q.stamp)
	q.stamp = nil
}

// Near is Grid.Near using this cursor's private stamps: identical
// enumeration order and semantics, safe to run concurrently with other
// Queriers over the same grid.
func (q *Querier) Near(r geom.Rect, radius int, fn func(id int)) {
	q.g.near(q.stamp, &q.visit, r, radius, fn)
}
