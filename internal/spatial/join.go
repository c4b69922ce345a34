// Package spatial finds every pair of rectangles within a distance of each
// other in one pass: a strip-sweep self-join. The decomposer runs it to
// find the features within the minimum coloring distance (stitch
// projections and conflict edges) and within the color-friendly band
// (mins, mins+hp), and the verifier runs it to recount conflicts, all
// without an O(n²) scan and without a per-rectangle query.
//
// NewJoin partitions the plane into horizontal strips of height r (the
// join radius), laid out as one CSR array: count each strip's entries,
// prefix-sum them into offsets, fill one key array. A rectangle enters
// every strip its closed span [y0, y1+r] covers, so both members of a pair
// at vertical gap ≤ r share the strip holding the larger of their two y0:
// the reference point. Sweep(s) sorts strip s by x0 and sweeps it forward,
// reporting a pair only in its reference point's strip (so once in all)
// and only when its squared gap is at most r² (Partition Based
// Spatial-Merge Join, Patel & DeWitt 1996, with Dittrich & Seeger's
// reference-point duplicate avoidance, 2000). Strips are independent, so
// they are the shard unit of a parallel join: each goroutine sweeps the
// strips it owns into its own per-strip output.
//
// A join replaced the uniform bucket grid this package used to hold. The
// grid answered one query per rectangle, walking 9–16 mostly empty buckets
// through per-query visit stamps to report about two neighbors; the join
// touches each candidate pair once, from a sorted array, with no stamps.
package spatial

import (
	"fmt"
	"math"
	"slices"

	"mpl/internal/geom"
)

// MaxEntries is the largest number of rectangles one Join can hold: keys
// carry int32-sized ids, so anything past 2^31−1 would silently truncate.
// NewJoin enforces it with a diagnosing panic — million-feature layouts
// stay far below it, but the guard turns a would-be silent wraparound
// (phantom neighbors, missed conflicts) into an immediate, attributable
// failure.
const MaxEntries = math.MaxInt32

// maxEntries is MaxEntries behind a var, so the guard test can lower it to
// an addressable size instead of allocating 2^31 rectangles.
var maxEntries = MaxEntries

// maxStripsPerEntry caps a join at this many strips per rectangle, and at
// this many strip entries per rectangle. Without the first cap the strips
// cover the rectangles' vertical extent at height r, so two features far
// apart — one small request — could ask for millions of strips. Without
// the second, tall rectangles fill the strips quadratically: a thousand
// overlapping world-sized rectangles put every id in every strip. The
// joins over the committed benchmark circuits stay well inside both caps
// (K = 3 to 6), so neither changes their strip height
// (TestGridCellUnchangedOnBenchmarks in internal/core pins that).
const maxStripsPerEntry = 64

// Join is a strip partition of a rectangle slice, ready to sweep. Each
// rectangle is identified by its index in the slice.
type Join struct {
	rects  []geom.Rect // the caller's slice
	r      int         // join radius
	height int         // strip height: r, or larger under the caps
	baseY  int         // strip s covers y in [baseY+s·height, baseY+(s+1)·height)
	baseX  int         // the smallest x0: keys hold x0−baseX
	off    []int32     // strip s holds keys[off[s]:off[s+1]]
	keys   []uint64    // (x0−baseX)<<32 | id, ascending once swept
}

// NewJoin partitions rects, which must be valid (X0 < X1, Y0 < Y1), for a
// self-join at radius r. The join keeps rects as its geometry table, so
// the caller must not modify the slice while the join is in use. When the
// strips would number more than maxStripsPerEntry per rectangle, or hold
// more than maxStripsPerEntry entries per rectangle, the strip height
// doubles until both fit; a pair is still reported exactly when its
// squared gap is at most r², so only the number of candidates swept
// changes. NewJoin panics with a diagnosis
// when rects holds more than MaxEntries rectangles or their x0 span does
// not fit the keys' 32 bits (a layout's ±2^30 coordinates always do).
func NewJoin(rects []geom.Rect, r int) *Join {
	n := len(rects)
	if n > maxEntries {
		panic(fmt.Sprintf("spatial: %d rectangles exceed the join capacity of %d; int32 ids cannot address more", n, maxEntries))
	}
	r = max(r, 0)
	j := &Join{rects: rects, r: r, height: max(r, 1)}
	if n == 0 {
		j.off = []int32{0}
		return j
	}
	minX, maxX := rects[0].X0, rects[0].X0
	minY, maxY := rects[0].Y0, rects[0].Y1
	for _, b := range rects[1:] {
		minX, maxX = min(minX, b.X0), max(maxX, b.X0)
		minY, maxY = min(minY, b.Y0), max(maxY, b.Y1)
	}
	if int64(maxX)-int64(minX) > math.MaxUint32 {
		panic(fmt.Sprintf("spatial: x0 span [%d, %d] exceeds the join's 32-bit key range", minX, maxX))
	}
	j.baseX, j.baseY = minX, minY

	// Double the height until the strips and their entries fit the caps.
	// One strip holds every rectangle exactly once, so the loop ends;
	// capping the entries at MaxInt32 keeps every offset addressable by
	// an int32.
	limit := min(int64(maxStripsPerEntry)*int64(n), math.MaxInt32)
	span := int64(maxY) + int64(r) - int64(minY)
	for span/int64(j.height)+1 > limit || j.entries(limit) > limit {
		j.height *= 2
	}
	strips := j.strip(maxY+r) + 1

	// Count each strip's entries into off[s+1], prefix-sum them into start
	// offsets, then fill the keys in id order.
	j.off = make([]int32, strips+1)
	for _, b := range rects {
		for s := j.strip(b.Y0); s <= j.strip(b.Y1+r); s++ {
			j.off[s+1]++
		}
	}
	for s := 1; s <= strips; s++ {
		j.off[s] += j.off[s-1]
	}
	j.keys = make([]uint64, j.off[strips])
	for id, b := range rects {
		key := uint64(b.X0-minX)<<32 | uint64(id)
		for s := j.strip(b.Y0); s <= j.strip(b.Y1+r); s++ {
			j.keys[j.off[s]] = key
			j.off[s]++
		}
	}
	// The fill advanced each off[s] to its strip's end, which is the next
	// strip's start: shift back by one.
	copy(j.off[1:], j.off[:strips])
	j.off[0] = 0
	return j
}

// strip returns the index of the strip holding y.
func (j *Join) strip(y int) int { return (y - j.baseY) / j.height }

// entries returns the strip entries at the current height, stopping once
// the total passes limit.
func (j *Join) entries(limit int64) int64 {
	var total int64
	for _, b := range j.rects {
		if total += int64(j.strip(b.Y1+j.r) - j.strip(b.Y0) + 1); total > limit {
			break
		}
	}
	return total
}

// Strips returns the number of strips; Sweep takes an index below it. At
// strip height r there are (maxY1 + r − minY0)/r + 1 of them; fewer means
// NewJoin raised the height under its caps.
func (j *Join) Strips() int { return len(j.off) - 1 }

// Sweep calls fn(a, b) for every pair a ≠ b of rectangles whose reference
// point max(y0a, y0b) lies in strip s and whose squared gap is at most r²
// (exact integer arithmetic). Over all strips every such pair is reported
// exactly once, with a before b in (x0, id) order. Sweep sorts the strip
// in place, so goroutines may sweep distinct strips of one join
// concurrently, never one strip twice at once.
func (j *Join) Sweep(s int, fn func(a, b int32)) {
	keys := j.keys[j.off[s]:j.off[s+1]]
	slices.Sort(keys)
	lo := j.baseY + s*j.height
	rr := int64(j.r) * int64(j.r)
	for i, ka := range keys {
		a := int32(uint32(ka))
		ra := j.rects[a]
		// A rectangle starting past ra.X1+r is farther than r along x,
		// and so is every key after it.
		end := uint64(math.MaxUint64)
		if x := int64(ra.X1) + int64(j.r) - int64(j.baseX); x < math.MaxUint32 {
			end = uint64(x)<<32 | math.MaxUint32
		}
		for _, kb := range keys[i+1:] {
			if kb > end {
				break
			}
			b := int32(uint32(kb))
			rb := j.rects[b]
			if max(ra.Y0, rb.Y0) < lo {
				continue // reported in the strip of its reference point
			}
			if geom.GapSq(ra, rb) <= rr {
				fn(a, b)
			}
		}
	}
}
