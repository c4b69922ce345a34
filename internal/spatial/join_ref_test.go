package spatial

// Differential check of the strip join against a brute-force oracle: over
// every strip, Sweep must report each pair within r exactly once, in the
// strip of its reference point, with no pair beyond r, and the strip
// height must be the smallest doubling of r that fits both caps. The
// tests and the fuzz target keep the names of the bucket-grid suite the
// join replaced ("grid" is the strip partition, a one-column grid), so
// their corpus and history carry over.

import (
	"cmp"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"mpl/internal/geom"
)

// pair is an unordered rectangle pair, smaller id first.
type pair struct{ a, b int32 }

func orderedPair(a, b int32) pair { return pair{min(a, b), max(a, b)} }

func comparePairs(x, y pair) int {
	if c := cmp.Compare(x.a, y.a); c != 0 {
		return c
	}
	return cmp.Compare(x.b, y.b)
}

// bruteJoin is the oracle: every pair of rects with squared gap at most
// r², ascending.
func bruteJoin(rects []geom.Rect, r int) []pair {
	var out []pair
	rr := int64(r) * int64(r)
	for i := range rects {
		for j := i + 1; j < len(rects); j++ {
			if geom.GapSq(rects[i], rects[j]) <= rr {
				out = append(out, pair{int32(i), int32(j)})
			}
		}
	}
	return out
}

// sweepAll sweeps every strip of j in order and returns the reported pairs
// ascending. It fails the test when a pair is reported twice, outside the
// strip of its reference point, or out of (x0, id) order.
func sweepAll(t *testing.T, j *Join) []pair {
	t.Helper()
	var out []pair
	for s := range j.Strips() {
		lo := j.baseY + s*j.height
		j.Sweep(s, func(a, b int32) {
			ra, rb := j.rects[a], j.rects[b]
			if y := max(ra.Y0, rb.Y0); y < lo || y >= lo+j.height {
				t.Fatalf("pair (%d,%d) reported in strip %d [%d,%d), reference point y=%d", a, b, s, lo, lo+j.height, y)
			}
			if ra.X0 > rb.X0 || (ra.X0 == rb.X0 && a > b) {
				t.Fatalf("pair (%d,%d) reported out of (x0, id) order: %v, %v", a, b, ra, rb)
			}
			out = append(out, orderedPair(a, b))
		})
	}
	slices.SortFunc(out, comparePairs)
	for k := 1; k < len(out); k++ {
		if out[k] == out[k-1] {
			t.Fatalf("pair %v reported twice", out[k])
		}
	}
	return out
}

// capsAt returns the strip and entry counts of rects at strip height h for
// radius r, computed independently of NewJoin.
func capsAt(rects []geom.Rect, r, h int) (strips, entries int64) {
	minY, maxY := rects[0].Y0, rects[0].Y1
	for _, b := range rects {
		minY, maxY = min(minY, b.Y0), max(maxY, b.Y1)
	}
	for _, b := range rects {
		entries += int64((b.Y1+r-minY)/h - (b.Y0-minY)/h + 1)
	}
	return int64((maxY+r-minY)/h + 1), entries
}

// checkJoinMatchesReference joins rects at radius r and checks the pairs
// against bruteJoin, the strip height against the caps, and the entries
// against their bound.
func checkJoinMatchesReference(t *testing.T, rects []geom.Rect, r int) {
	t.Helper()
	j := NewJoin(rects, r)
	limit := int64(maxStripsPerEntry) * int64(max(len(rects), 1))
	if strips, entries := int64(j.Strips()), int64(len(j.keys)); strips > limit || entries > limit {
		t.Fatalf("%d strips and %d entries for %d rects, cap %d per rect", strips, entries, len(rects), maxStripsPerEntry)
	}
	if len(rects) > 0 {
		if j.height < max(r, 1) {
			t.Fatalf("strip height %d below the radius %d", j.height, r)
		}
		if h := j.height / 2; h >= max(r, 1) {
			if strips, entries := capsAt(rects, r, h); strips <= limit && entries <= limit {
				t.Fatalf("strip height %d, but %d fits the caps (%d strips, %d entries, cap %d)", j.height, h, strips, entries, limit)
			}
		}
	}
	got, want := sweepAll(t, j), bruteJoin(rects, r)
	if !slices.Equal(got, want) {
		t.Fatalf("r=%d height %d: join %v, brute force %v", r, j.height, got, want)
	}
}

func TestGridMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
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
			if rng.Intn(10) == 0 { // a world-tall one
				y, h = 0, span
			}
			rects[i] = geom.Rect{X0: x, Y0: y, X1: x + w, Y1: y + h}
		}
		radii := []int{rng.Intn(200), rng.Intn(span / 4), 1 + rng.Intn(8)}
		t.Run(fmt.Sprint(trial), func(t *testing.T) {
			for _, r := range radii {
				checkJoinMatchesReference(t, rects, r)
			}
		})
	}
}

// TestGridEntryCap: a thousand overlapping rectangles that each span
// nearly the whole world. At strip height r every rectangle would sit in
// over a thousand strips — a million entries for this small input. The
// entry cap raises the height until the strips hold at most
// maxStripsPerEntry entries per rectangle — a few hundred kilobytes — and
// the join still reports exactly the pairs within r: here, all of them.
func TestGridEntryCap(t *testing.T) {
	const n = 1000
	rects := make([]geom.Rect, n)
	for i := range rects {
		rects[i] = geom.Rect{X0: i, Y0: 2 * i, X1: 99_000 + i, Y1: 98_000 + i}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	j := NewJoin(rects, 80)
	runtime.ReadMemStats(&after)
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb > 1 {
		t.Fatalf("NewJoin allocated %.1f MB", mb)
	}
	if total := len(j.keys); total > maxStripsPerEntry*n {
		t.Fatalf("%d entries for %d rects, cap %d", total, n, maxStripsPerEntry*n)
	}
	if j.height <= 80 {
		t.Fatalf("strip height %d did not grow", j.height)
	}
	checkJoinMatchesReference(t, rects, 80)
}

// FuzzGridMatchesReference decodes a radius, rectangles and more radii
// from bytes and runs checkJoinMatchesReference at each radius. Layout:
// byte 0 is the first radius (0..255), byte 1 the rectangle count
// (mod 48); each rectangle is four bytes x, y, w, h on an 8 nm lattice
// (each side at least 1 nm), where w = 0xFF spans the world; each of up
// to 8 remaining bytes is one more radius, in lattice units.
func FuzzGridMatchesReference(f *testing.F) {
	f.Add([]byte{80, 3, 0, 0, 2, 2, 10, 0, 2, 2, 60, 60, 1, 1, 0, 0, 1, 1, 20})
	f.Add([]byte{1, 2, 0, 0, 0xFF, 4, 5, 5, 0, 3, 1, 1, 1, 1, 0})
	f.Add([]byte{200, 0, 1, 1, 1, 1, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		const unit, span = 8, 256 * 8
		radii := []int{int(data[0])}
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
		for _, b := range data[:min(len(data), 8)] {
			radii = append(radii, int(b)*unit)
		}
		for _, r := range radii {
			checkJoinMatchesReference(t, rects, r)
		}
	})
}
