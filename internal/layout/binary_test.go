package layout

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mpl/internal/geom"
)

func TestBinaryRoundTrip(t *testing.T) {
	l := sample()
	var buf bytes.Buffer
	if err := l.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != l.Name || got.Process != l.Process {
		t.Fatalf("header mismatch: %q %+v", got.Name, got.Process)
	}
	if !reflect.DeepEqual(got.Features, l.Features) {
		t.Fatalf("features mismatch:\n got %v\nwant %v", got.Features, l.Features)
	}
}

func TestBinaryNegativeCoordinates(t *testing.T) {
	l := New("neg")
	l.AddRect(geom.Rect{X0: -100, Y0: -50, X1: -80, Y1: -30})
	var buf bytes.Buffer
	if err := l.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Features[0].Rects[0] != (geom.Rect{X0: -100, Y0: -50, X1: -80, Y1: -30}) {
		t.Fatalf("rect = %v", got.Features[0].Rects[0])
	}
}

func TestBinaryRejectsCorruption(t *testing.T) {
	l := sample()
	var buf bytes.Buffer
	if err := l.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Bad magic.
	bad := append([]byte(nil), good...)
	bad[0] = 'X'
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Bad version.
	bad = append([]byte(nil), good...)
	bad[4] = 99
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad version accepted")
	}
	// Truncations at every prefix length must error, not panic.
	for cut := 0; cut < len(good); cut += 3 {
		if _, err := ReadBinary(bytes.NewReader(good[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestBinaryRejectsInvalidRect(t *testing.T) {
	l := New("bad")
	l.Features = append(l.Features, geom.Polygon{Rects: []geom.Rect{{X0: 5, Y0: 5, X1: 1, Y1: 1}}})
	var buf bytes.Buffer
	if err := l.WriteBinary(&buf); err == nil {
		t.Fatal("invalid rect written")
	}
}

func TestReadAnyDispatches(t *testing.T) {
	l := sample()
	dir := t.TempDir()
	tp := filepath.Join(dir, "t.lay")
	bp := filepath.Join(dir, "t.layb")
	if err := l.WriteFile(tp); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteBinaryFile(bp); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{tp, bp} {
		got, err := ReadAny(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(got.Features) != len(l.Features) {
			t.Fatalf("%s: %d features", path, len(got.Features))
		}
	}
	if _, err := ReadAny(filepath.Join(dir, "missing.lay")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestBinarySmallerThanText(t *testing.T) {
	l := New("size")
	for i := 0; i < 500; i++ {
		l.AddRect(geom.Rect{X0: i * 40, Y0: 0, X1: i*40 + 20, Y1: 20})
	}
	var tb, bb bytes.Buffer
	if err := l.Write(&tb); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteBinary(&bb); err != nil {
		t.Fatal(err)
	}
	if bb.Len() >= tb.Len() {
		t.Fatalf("binary (%d) not smaller than text (%d)", bb.Len(), tb.Len())
	}
	if !strings.Contains(tb.String(), "layout size") {
		t.Fatal("text format sanity check failed")
	}
}

// TestBinaryRejectsInt32Overflow: WriteBinary refuses what int32 cannot
// hold instead of truncating it into a different layout.
func TestBinaryRejectsInt32Overflow(t *testing.T) {
	for _, r := range []geom.Rect{
		{X0: 1 << 31, Y0: 0, X1: 1<<31 + 10, Y1: 10},
		{X0: 0, Y0: -(1 << 32), X1: 10, Y1: 10},
		{X0: -(1 << 30), Y0: 0, X1: 1 << 30, Y1: 10}, // width 2^31
	} {
		l := New("wide")
		l.AddRect(r)
		if err := l.WriteBinary(&bytes.Buffer{}); err == nil {
			t.Errorf("%v: WriteBinary accepted it", r)
		}
	}
	l := New("proc")
	l.AddRect(geom.Rect{X1: 10, Y1: 10})
	l.Process.HalfPitch = 1 << 40
	if err := l.WriteBinary(&bytes.Buffer{}); err == nil {
		t.Error("process parameter beyond int32 accepted")
	}
	// The widest in-range rect still round-trips.
	in := New("edge")
	in.AddRect(geom.Rect{X0: -(CoordLimit - 1), Y0: -(CoordLimit - 1), X1: CoordLimit - 1, Y1: CoordLimit - 1})
	var buf bytes.Buffer
	if err := in.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil || got.Features[0].Rects[0] != in.Features[0].Rects[0] {
		t.Fatalf("round trip: %v %v", got, err)
	}
}
