package layout

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mpl/internal/geom"
)

func sample() *Layout {
	l := New("sample")
	l.AddRect(geom.Rect{X0: 0, Y0: 0, X1: 20, Y1: 20})
	l.Add(geom.NewPolygon(
		geom.Rect{X0: 100, Y0: 0, X1: 200, Y1: 20},
		geom.Rect{X0: 100, Y0: 20, X1: 120, Y1: 100},
	))
	return l
}

func TestMinColoringDistance(t *testing.T) {
	p := DefaultProcess()
	cases := []struct{ k, want int }{
		{3, 60},  // 2·20+20  (Fig. 7 distance)
		{4, 80},  // 2·20+2·20 (Section 6, QP)
		{5, 110}, // 3·20+2.5·20 (Section 6, pentuple)
		{6, 140}, // progression (K-2)·sm + (K/2)·wm
	}
	for _, c := range cases {
		if got := p.MinColoringDistance(c.k); got != c.want {
			t.Errorf("MinColoringDistance(%d) = %d, want %d", c.k, got, c.want)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	l := sample()
	var buf bytes.Buffer
	if err := l.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != l.Name {
		t.Errorf("Name = %q, want %q", got.Name, l.Name)
	}
	if got.Process != l.Process {
		t.Errorf("Process = %+v, want %+v", got.Process, l.Process)
	}
	if !reflect.DeepEqual(got.Features, l.Features) {
		t.Errorf("Features mismatch:\n got %v\nwant %v", got.Features, l.Features)
	}
}

func TestFileRoundTrip(t *testing.T) {
	l := sample()
	path := filepath.Join(t.TempDir(), "s.lay")
	if err := l.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAny(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Features) != 2 {
		t.Fatalf("features = %d, want 2", len(got.Features))
	}
}

func TestReadErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"nested feature", "feature\nfeature\n"},
		{"rect outside", "rect 0 0 1 1\n"},
		{"bad rect arity", "feature\nrect 0 0 1\nend\n"},
		{"invalid rect", "feature\nrect 5 5 1 1\nend\n"},
		{"empty feature", "feature\nend\n"},
		{"unknown directive", "polygon\n"},
		{"unterminated", "feature\nrect 0 0 1 1\n"},
		{"bad process", "process 1 2\n"},
		{"layout no name", "layout\n"},
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: Read accepted malformed input", c.name)
		}
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\nlayout x\n  # indented comment\nfeature\nrect 0 0 1 1\nend\n"
	l, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if l.Name != "x" || len(l.Features) != 1 {
		t.Fatalf("parsed %q with %d features", l.Name, len(l.Features))
	}
}

func TestValidate(t *testing.T) {
	l := sample()
	if err := l.Validate(); err != nil {
		t.Fatalf("valid layout rejected: %v", err)
	}
	bad := New("bad")
	bad.Add(geom.NewPolygon(geom.Rect{X0: 0, Y0: 0, X1: 2, Y1: 2}, geom.Rect{X0: 50, Y0: 50, X1: 52, Y1: 52}))
	if err := bad.Validate(); err == nil {
		t.Fatal("disconnected feature accepted")
	}
	badProc := New("badproc")
	badProc.AddRect(geom.Rect{X0: 0, Y0: 0, X1: 1, Y1: 1})
	badProc.Process.MinWidth = 0
	if err := badProc.Validate(); err == nil {
		t.Fatal("zero MinWidth accepted")
	}
}

func TestBoundsAndCounts(t *testing.T) {
	l := sample()
	if got := l.Bounds(); got != (geom.Rect{X0: 0, Y0: 0, X1: 200, Y1: 100}) {
		t.Fatalf("Bounds = %v", got)
	}
	if got := l.RectCount(); got != 3 {
		t.Fatalf("RectCount = %d, want 3", got)
	}
	empty := New("e")
	if got := empty.Bounds(); got != (geom.Rect{}) {
		t.Fatalf("empty Bounds = %v", got)
	}
}

func TestSanitizedName(t *testing.T) {
	l := New("two words")
	var buf bytes.Buffer
	if err := l.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "two_words" {
		t.Fatalf("Name = %q, want sanitized", got.Name)
	}
	empty := &Layout{Process: DefaultProcess()}
	buf.Reset()
	if err := empty.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "layout unnamed") {
		t.Fatalf("empty name not defaulted: %q", buf.String())
	}
}

func TestValidateCoordinateRange(t *testing.T) {
	const L = CoordLimit
	for _, c := range []struct {
		r  geom.Rect
		ok bool
	}{
		{geom.Rect{X0: -(L - 1), Y0: -(L - 1), X1: L - 1, Y1: L - 1}, true},
		{geom.Rect{X0: 0, Y0: 0, X1: L, Y1: 10}, false},
		{geom.Rect{X0: 0, Y0: -L, X1: 10, Y1: 10}, false},
		{geom.Rect{X0: -L, Y0: 0, X1: 10, Y1: 10}, false},
		{geom.Rect{X0: 0, Y0: 0, X1: 10, Y1: L}, false},
		{geom.Rect{X0: 1 << 62, Y0: 0, X1: 1<<62 + 10, Y1: 10}, false},
		{geom.Rect{X0: 10, Y0: 0, X1: 0, Y1: 10}, false},
	} {
		l := New("range")
		l.AddRect(c.r)
		if err := l.Validate(); (err == nil) != c.ok {
			t.Errorf("%v: Validate = %v, want ok=%v", c.r, err, c.ok)
		}
		if err := CheckRect(c.r); (err == nil) != c.ok {
			t.Errorf("%v: CheckRect = %v, want ok=%v", c.r, err, c.ok)
		}
	}
}
