// Package geom provides the integer-coordinate planar geometry used by the
// layout decomposer: points, axis-aligned rectangles, and rectilinear
// polygons represented as unions of rectangles.
//
// All coordinates are integers in layout database units (1 unit = 1 nm in the
// benchmarks of the DAC'14 paper). Distances between shapes are Euclidean
// gap distances: the smallest distance between any two points of the two
// shapes, which is zero when the shapes touch or overlap.
package geom

import (
	"fmt"
	"math"
)

// Point is a location on the layout grid.
type Point struct {
	X, Y int
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

// Rect is an axis-aligned rectangle with inclusive lower-left corner
// (X0, Y0) and exclusive upper-right corner (X1, Y1) in the half-open sense
// commonly used for layout database geometry. A Rect is valid when
// X0 < X1 and Y0 < Y1.
type Rect struct {
	X0, Y0, X1, Y1 int
}

// Valid reports whether the rectangle has positive width and height.
func (r Rect) Valid() bool { return r.X0 < r.X1 && r.Y0 < r.Y1 }

// Width returns the horizontal extent.
func (r Rect) Width() int { return r.X1 - r.X0 }

// Height returns the vertical extent.
func (r Rect) Height() int { return r.Y1 - r.Y0 }

// Area returns the rectangle area.
func (r Rect) Area() int64 { return int64(r.Width()) * int64(r.Height()) }

// Center returns the center point, rounded down.
func (r Rect) Center() Point { return Point{(r.X0 + r.X1) / 2, (r.Y0 + r.Y1) / 2} }

// Translate returns r shifted by (dx, dy).
func (r Rect) Translate(dx, dy int) Rect {
	return Rect{r.X0 + dx, r.Y0 + dy, r.X1 + dx, r.Y1 + dy}
}

// Expand returns r grown by d on every side. A negative d shrinks the
// rectangle and may make it invalid.
func (r Rect) Expand(d int) Rect {
	return Rect{r.X0 - d, r.Y0 - d, r.X1 + d, r.Y1 + d}
}

// Touches reports whether the rectangles share at least a boundary point
// (including corner contact) or overlap.
func (r Rect) Touches(o Rect) bool {
	return r.X0 <= o.X1 && o.X0 <= r.X1 && r.Y0 <= o.Y1 && o.Y0 <= r.Y1
}

// Union returns the bounding box of both rectangles.
func (r Rect) Union(o Rect) Rect {
	return Rect{
		min(r.X0, o.X0), min(r.Y0, o.Y0),
		max(r.X1, o.X1), max(r.Y1, o.Y1),
	}
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d %d,%d]", r.X0, r.Y0, r.X1, r.Y1)
}

// axisGap returns the separation between intervals [a0,a1) and [b0,b1)
// along one axis; zero when they overlap or touch.
func axisGap(a0, a1, b0, b1 int) int {
	switch {
	case b0 > a1:
		return b0 - a1
	case a0 > b1:
		return a0 - b1
	default:
		return 0
	}
}

// GapSq returns the squared Euclidean gap distance between two rectangles:
// 0 when they touch or overlap, otherwise the squared distance between the
// two closest boundary points. Using the squared value keeps everything in
// exact integer arithmetic; callers compare against mins² to decide
// conflicts, matching the paper's "within minimum coloring distance" test.
func GapSq(a, b Rect) int64 {
	dx := int64(axisGap(a.X0, a.X1, b.X0, b.X1))
	dy := int64(axisGap(a.Y0, a.Y1, b.Y0, b.Y1))
	return dx*dx + dy*dy
}

// Polygon is a rectilinear shape stored as a union of rectangles. The
// rectangles may touch but should not overlap; layout readers and the
// synthetic generators produce non-overlapping decompositions.
type Polygon struct {
	Rects []Rect
}

// NewPolygon returns a polygon over the given rectangles.
func NewPolygon(rects ...Rect) Polygon {
	return Polygon{Rects: append([]Rect(nil), rects...)}
}

// Valid reports whether the polygon has at least one valid rectangle and no
// invalid member rectangles.
func (pg Polygon) Valid() bool {
	if len(pg.Rects) == 0 {
		return false
	}
	for _, r := range pg.Rects {
		if !r.Valid() {
			return false
		}
	}
	return true
}

// Bounds returns the bounding box of the polygon. The zero Rect is returned
// for an empty polygon.
func (pg Polygon) Bounds() Rect {
	if len(pg.Rects) == 0 {
		return Rect{}
	}
	b := pg.Rects[0]
	for _, r := range pg.Rects[1:] {
		b = b.Union(r)
	}
	return b
}

// Area returns the total area assuming non-overlapping member rectangles.
func (pg Polygon) Area() int64 {
	var a int64
	for _, r := range pg.Rects {
		a += r.Area()
	}
	return a
}

// Translate returns the polygon shifted by (dx, dy).
func (pg Polygon) Translate(dx, dy int) Polygon {
	out := Polygon{Rects: make([]Rect, len(pg.Rects))}
	for i, r := range pg.Rects {
		out.Rects[i] = r.Translate(dx, dy)
	}
	return out
}

// GapSqPoly returns the squared gap distance between two polygons: the
// minimum pairwise rectangle gap. Zero means the polygons touch or overlap.
func GapSqPoly(a, b Polygon) int64 {
	best := int64(math.MaxInt64)
	for _, ra := range a.Rects {
		for _, rb := range b.Rects {
			if g := GapSq(ra, rb); g < best {
				best = g
				if best == 0 {
					return 0
				}
			}
		}
	}
	return best
}

// Connected reports whether the polygon's rectangles form one connected
// shape under touch-adjacency. Single-rectangle polygons are connected.
func (pg Polygon) Connected() bool {
	n := len(pg.Rects)
	if n <= 1 {
		return n == 1
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for j := 0; j < n; j++ {
			if !seen[j] && pg.Rects[i].Touches(pg.Rects[j]) {
				seen[j] = true
				count++
				stack = append(stack, j)
			}
		}
	}
	return count == n
}
