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
// Every query goes through a Querier, a cursor with the visit stamps that
// deduplicate one query; goroutines sharing a grid each take their own.
// Querier.Near reports every id in range; Querier.NearAfter reports only
// the ids above a given one, so an all-pairs scan finds each pair once.
//
// The grid's bucket offsets and ids and the queriers' stamps are recycled
// through process-wide pools: grids and queriers are per-build objects,
// but their arrays are size-stable across repeated service requests, so
// Release-ing them keeps steady-state graph builds from re-allocating them
// every time.
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
// deduplicate; each Querier does that with its own visit-stamp array.
type Grid struct {
	cell   int // cell edge length
	minX   int
	minY   int
	cols   int
	rows   int
	off    []int32     // bucket b holds ids[off[b]:off[b+1]]
	ids    []int32     // ascending within each bucket
	bounds []geom.Rect // per-ID bounding boxes (the caller's slice)
}

// NewGrid indexes rects over the world rectangle; rects[i] gets ID i. The
// grid keeps rects as its bounds table, so the caller must not modify the
// slice while the grid is in use. The cell size should be on the order of
// the query radius; the decomposer uses mins+hp. When the world is sparse —
// more than maxBucketsPerEntry buckets per rectangle — or the rectangles
// span so many cells that the buckets would hold more than
// maxBucketsPerEntry entries per rectangle, the cell size doubles until
// both fit; a query stays an exact distance predicate, so only the number
// of candidates scanned changes. NewGrid panics with a diagnosis when rects
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

	// The count pass tallies each bucket's entries into off[b+1] and stops
	// once the total passes the entry cap; then the cell doubles, which
	// never grows the table, and the pass reruns. The total is at least n
	// once the cell spans the world, so the loop ends; capping it at
	// MaxInt32 keeps every offset addressable by an int32. The prefix sum
	// turns the counts into start offsets; the fill pass walks rectangles
	// in ID order so each bucket lists its ids ascending, which fixes the
	// order a query reports them in.
	entryLimit := min(int64(limit), math.MaxInt32)
	g.off = offPool.get(cols*rows + 1)
	total := g.count(entryLimit)
	for total > entryLimit {
		g.cell *= 2
		g.cols, g.rows = gridDims(world, g.cell)
		g.off = g.off[:g.cols*g.rows+1]
		clear(g.off)
		total = g.count(entryLimit)
	}
	nb := g.cols * g.rows
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
	return g
}

// count adds each bucket's entries at the grid's current cell size into
// off[b+1] and returns their total. It stops at the first rectangle that
// takes the total past limit, so no count exceeds limit.
func (g *Grid) count(limit int64) int64 {
	var total int64
	for _, r := range g.bounds {
		c0, r0, c1, r1 := g.cellRange(r)
		if c1 < c0 || r1 < r0 {
			continue
		}
		if total += int64(c1-c0+1) * int64(r1-r0+1); total > limit {
			return total
		}
		for row := r0; row <= r1; row++ {
			for col := c0; col <= c1; col++ {
				g.off[row*g.cols+col+1]++
			}
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

// Release returns the grid's bucket arrays to the process-wide pools. Call
// it when the grid is done (end of a graph build, end of a verification
// pass), after every Querier over it is released; the grid must not be
// queried afterwards. Releasing is optional — an un-released grid is
// merely garbage-collected without recycling its arrays.
func (g *Grid) Release() {
	offPool.put(g.off)
	idPool.put(g.ids)
	g.off, g.ids = nil, nil
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

// Querier is a query cursor over a Grid with its own visit stamps, so
// goroutines can query one shared grid concurrently, each through its own
// Querier (the parallel graph-construction shards of internal/core).
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

// Near calls fn for every stored ID whose bounding box gap distance to r
// is at most radius (squared comparison, exact integer arithmetic). Each
// ID is reported once per query, in bucket scan order; the query's own ID
// is reported too if it matches, so callers filter self-pairs.
func (q *Querier) Near(r geom.Rect, radius int, fn func(id int)) {
	q.NearAfter(r, radius, -1, fn)
}

// NearAfter reports Near's list without the IDs <= after, in the same
// order. Bucket ids ascend, so those IDs are each bucket's prefix, and the
// scan starts past them: an all-pairs scan that passes each ID as after
// finds every pair once and never looks at the candidates below it.
func (q *Querier) NearAfter(r geom.Rect, radius, after int, fn func(id int)) {
	last := int32(min(max(after, -1), len(q.g.bounds)))
	g := q.g
	q.visit++
	if q.visit == 0 { // stamp wrapped; reset
		clear(q.stamp)
		q.visit = 1
	}
	visit := q.visit
	rr := int64(radius) * int64(radius)
	// Expand by radius+1, not radius: rectangles are half-open, so a
	// neighbor at gap exactly radius starts at the first coordinate
	// *outside* r.Expand(radius), and when a cell boundary falls there the
	// bucket scan would skip its cells entirely — a false negative at the
	// inclusive boundary of the distance predicate below. The extra cell
	// ring only adds candidates; GapSq still decides.
	c0, r0, c1, r1 := g.cellRange(r.Expand(radius + 1))
	for row := r0; row <= r1; row++ {
		for col := c0; col <= c1; col++ {
			b := row*g.cols + col
			bucket := g.ids[g.off[b]:g.off[b+1]]
			k := 0
			for k < len(bucket) && bucket[k] <= last {
				k++
			}
			for _, id := range bucket[k:] {
				if q.stamp[id] == visit {
					continue
				}
				q.stamp[id] = visit
				if geom.GapSq(r, g.bounds[id]) <= rr {
					fn(int(id))
				}
			}
		}
	}
}
