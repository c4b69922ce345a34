package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRectValid(t *testing.T) {
	cases := []struct {
		r    Rect
		want bool
	}{
		{Rect{0, 0, 1, 1}, true},
		{Rect{0, 0, 0, 1}, false},
		{Rect{0, 0, 1, 0}, false},
		{Rect{2, 2, 1, 1}, false},
	}
	for _, c := range cases {
		if got := c.r.Valid(); got != c.want {
			t.Errorf("%v.Valid() = %v, want %v", c.r, got, c.want)
		}
	}
}

func TestRectDimensions(t *testing.T) {
	r := Rect{1, 2, 5, 10}
	if r.Width() != 4 || r.Height() != 8 {
		t.Fatalf("Width/Height = %d/%d, want 4/8", r.Width(), r.Height())
	}
	if r.Area() != 32 {
		t.Fatalf("Area = %d, want 32", r.Area())
	}
	if c := r.Center(); c != (Point{3, 6}) {
		t.Fatalf("Center = %v, want (3,6)", c)
	}
}

func TestRectTranslateExpand(t *testing.T) {
	r := Rect{0, 0, 2, 2}
	if got := r.Translate(3, -1); got != (Rect{3, -1, 5, 1}) {
		t.Fatalf("Translate = %v", got)
	}
	if got := r.Expand(1); got != (Rect{-1, -1, 3, 3}) {
		t.Fatalf("Expand = %v", got)
	}
	if r.Expand(-1).Valid() {
		t.Fatalf("over-shrunk rect must be invalid")
	}
}

func TestIntersectsTouches(t *testing.T) {
	a := Rect{0, 0, 10, 10}
	cases := []struct {
		b     Rect
		touch bool
	}{
		{Rect{5, 5, 15, 15}, true},   // overlap
		{Rect{10, 0, 20, 10}, true},  // shared edge
		{Rect{10, 10, 20, 20}, true}, // shared corner
		{Rect{11, 0, 20, 10}, false}, // 1 unit apart
	}
	for _, c := range cases {
		if got := a.Touches(c.b); got != c.touch {
			t.Errorf("Touches(%v) = %v, want %v", c.b, got, c.touch)
		}
	}
}

func TestUnionIntersection(t *testing.T) {
	a := Rect{0, 0, 4, 4}
	b := Rect{2, 2, 8, 3}
	if got := a.Union(b); got != (Rect{0, 0, 8, 4}) {
		t.Fatalf("Union = %v", got)
	}
	if got := b.Union(a); got != (Rect{0, 0, 8, 4}) {
		t.Fatalf("Union is not symmetric: %v", got)
	}
}

func TestGapSq(t *testing.T) {
	a := Rect{0, 0, 10, 10}
	cases := []struct {
		b    Rect
		want int64
	}{
		{Rect{2, 2, 5, 5}, 0},     // contained
		{Rect{10, 0, 20, 10}, 0},  // touching edge
		{Rect{13, 0, 20, 10}, 9},  // 3 apart horizontally
		{Rect{0, 14, 10, 20}, 16}, // 4 apart vertically
		{Rect{13, 14, 20, 20}, 25},
	}
	for _, c := range cases {
		if got := GapSq(a, c.b); got != c.want {
			t.Errorf("GapSq(%v) = %d, want %d", c.b, got, c.want)
		}
	}
}

func TestGapSymmetry(t *testing.T) {
	// Property: gap distance is symmetric and zero iff Touches.
	rng := rand.New(rand.NewSource(1))
	randRect := func() Rect {
		x := rng.Intn(100)
		y := rng.Intn(100)
		return Rect{x, y, x + 1 + rng.Intn(20), y + 1 + rng.Intn(20)}
	}
	for i := 0; i < 2000; i++ {
		a, b := randRect(), randRect()
		ga, gb := GapSq(a, b), GapSq(b, a)
		if ga != gb {
			t.Fatalf("asymmetric gap: %v vs %v for %v %v", ga, gb, a, b)
		}
		if (ga == 0) != a.Touches(b) {
			t.Fatalf("gap==0 (%d) disagrees with Touches (%v) for %v %v", ga, a.Touches(b), a, b)
		}
	}
}

func TestPolygonBasics(t *testing.T) {
	pg := NewPolygon(Rect{0, 0, 10, 2}, Rect{0, 2, 2, 10})
	if !pg.Valid() {
		t.Fatal("polygon should be valid")
	}
	if got := pg.Bounds(); got != (Rect{0, 0, 10, 10}) {
		t.Fatalf("Bounds = %v", got)
	}
	if got := pg.Area(); got != 20+16 {
		t.Fatalf("Area = %d, want 36", got)
	}
	if !pg.Connected() {
		t.Fatal("L-shape should be connected")
	}
}

func TestPolygonDisconnected(t *testing.T) {
	pg := NewPolygon(Rect{0, 0, 2, 2}, Rect{5, 5, 7, 7})
	if pg.Connected() {
		t.Fatal("separated rects must not be connected")
	}
	if (Polygon{}).Valid() {
		t.Fatal("empty polygon must be invalid")
	}
	if (Polygon{}).Connected() {
		t.Fatal("empty polygon must not be connected")
	}
}

func TestPolygonTranslate(t *testing.T) {
	pg := NewPolygon(Rect{0, 0, 2, 2})
	moved := pg.Translate(5, 7)
	if moved.Rects[0] != (Rect{5, 7, 7, 9}) {
		t.Fatalf("Translate = %v", moved.Rects[0])
	}
	// Original untouched.
	if pg.Rects[0] != (Rect{0, 0, 2, 2}) {
		t.Fatalf("Translate mutated receiver")
	}
}

func TestGapSqPoly(t *testing.T) {
	a := NewPolygon(Rect{0, 0, 2, 2}, Rect{20, 0, 22, 2})
	b := NewPolygon(Rect{5, 0, 7, 2})
	// Closest pair: rect (5..7) vs (0..2) → gap 3 and vs (20..22) → gap 13.
	if got := GapSqPoly(a, b); got != 9 {
		t.Fatalf("GapSqPoly = %d, want 9", got)
	}
	if got := GapSqPoly(a, a); got != 0 {
		t.Fatalf("self distance = %d, want 0", got)
	}
}

func TestGapSqPolyMatchesBruteForce(t *testing.T) {
	// Property via testing/quick: polygon gap equals min over rect pairs.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() Polygon {
			n := 1 + rng.Intn(4)
			rects := make([]Rect, n)
			for i := range rects {
				x, y := rng.Intn(50), rng.Intn(50)
				rects[i] = Rect{x, y, x + 1 + rng.Intn(10), y + 1 + rng.Intn(10)}
			}
			return Polygon{Rects: rects}
		}
		a, b := mk(), mk()
		want := int64(math.MaxInt64)
		for _, ra := range a.Rects {
			for _, rb := range b.Rects {
				if g := GapSq(ra, rb); g < want {
					want = g
				}
			}
		}
		return GapSqPoly(a, b) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPointString(t *testing.T) {
	if got := (Point{3, -4}).String(); got != "(3,-4)" {
		t.Fatalf("String = %q", got)
	}
	if got := (Rect{0, 0, 1, 2}).String(); got != "[0,0 1,2]" {
		t.Fatalf("Rect.String = %q", got)
	}
}

func TestUnionContainsBoth(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() Rect {
			x, y := rng.Intn(100)-50, rng.Intn(100)-50
			return Rect{x, y, x + 1 + rng.Intn(30), y + 1 + rng.Intn(30)}
		}
		a, b := mk(), mk()
		u := a.Union(b)
		// Union contains all four corners of both rects.
		for _, r := range []Rect{a, b} {
			if r.X0 < u.X0 || r.Y0 < u.Y0 || r.X1 > u.X1 || r.Y1 > u.Y1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestGapTriangleInequality(t *testing.T) {
	// Euclidean gap satisfies a weak triangle inequality through any
	// intermediate rectangle: gap(a,c) <= gap(a,b) + diam(b) + gap(b,c).
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		mk := func() Rect {
			x, y := rng.Intn(200), rng.Intn(200)
			return Rect{x, y, x + 1 + rng.Intn(40), y + 1 + rng.Intn(40)}
		}
		a, b, c := mk(), mk(), mk()
		gap := func(p, q Rect) float64 { return math.Sqrt(float64(GapSq(p, q))) }
		diam := math.Hypot(float64(b.Width()), float64(b.Height()))
		if gap(a, c) > gap(a, b)+diam+gap(b, c)+1e-9 {
			t.Fatalf("triangle violated for %v %v %v", a, b, c)
		}
	}
}
