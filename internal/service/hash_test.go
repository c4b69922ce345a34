package service

import (
	"path/filepath"
	"testing"

	"mpl/internal/geom"
	"mpl/internal/layout"
)

// TestLayoutHashDigestPinned pins LayoutHash's digest on committed
// layouts. The digest keys the result cache, the durable session store and
// the serving benchmark's request pins, so an encoding change — however
// fast — must not change a single byte of it.
func TestLayoutHashDigestPinned(t *testing.T) {
	for name, want := range map[string]string{
		"C432.lay":  "19675d82012b597fa953919519e161f073a3d1b55bf3735286af57642353a8ab",
		"C7552.lay": "ccfe1b9861a0198365551da8f3d2df985c7cd37c43c988654c2ac2c230086a51",
	} {
		l, err := layout.ReadAny(filepath.Join("..", "..", "benchmarks", name))
		if err != nil {
			t.Fatal(err)
		}
		if got := LayoutHash(l); got != want {
			t.Errorf("%s: LayoutHash = %s, want %s", name, got, want)
		}
	}
	// Small literal layouts: the empty layout, and a name-only change.
	empty := layout.New("a")
	if got, want := LayoutHash(empty), "72bc9ba83ecfb76ef313730e92a6f22ae7c96af30a19dd0589339500b43e9725"; got != want {
		t.Errorf("empty layout: LayoutHash = %s, want %s", got, want)
	}
	l := layout.New("x")
	l.Add(geom.NewPolygon(geom.Rect{X0: -5, Y0: 0, X1: 20, Y1: 20}, geom.Rect{X0: 20, Y0: 0, X1: 40, Y1: 400}))
	if got, want := LayoutHash(l), "89efd6ac56a39e8f6e53cb1816fb1665d801798661fec42995c60d5752efd67c"; got != want {
		t.Errorf("two-rect layout: LayoutHash = %s, want %s", got, want)
	}
}

func BenchmarkLayoutHash(b *testing.B) {
	l, err := layout.ReadAny(filepath.Join("..", "..", "benchmarks", "C7552.lay"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		LayoutHash(l)
	}
}
