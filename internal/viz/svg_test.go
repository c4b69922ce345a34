package viz

import (
	"bytes"
	"encoding/xml"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpl/internal/core"
	"mpl/internal/geom"
	"mpl/internal/layout"
)

func testResult(t *testing.T) *core.Result {
	t.Helper()
	l := layout.New("viz")
	// Fig. 7 cross (guaranteed conflict) plus a splittable wire (stitch).
	for _, p := range []geom.Point{{X: 0, Y: 0}, {X: 40, Y: 0}, {X: -40, Y: 0}, {X: 0, Y: 40}, {X: 0, Y: -40}} {
		l.AddRect(geom.Rect{X0: p.X, Y0: p.Y, X1: p.X + 20, Y1: p.Y + 20})
	}
	l.AddRect(geom.Rect{X0: -200, Y0: 200, X1: 240, Y1: 220})
	l.AddRect(geom.Rect{X0: -200, Y0: 260, X1: -140, Y1: 280})
	l.AddRect(geom.Rect{X0: 180, Y0: 260, X1: 240, Y1: 280})
	res, err := core.Decompose(l, core.Options{K: 4, Algorithm: core.AlgILP, Build: core.BuildOptions{MinS: 60}})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestWriteResultWellFormed(t *testing.T) {
	res := testResult(t)
	var buf bytes.Buffer
	if err := WriteResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "<svg") {
		t.Fatalf("missing svg root: %.60s", out)
	}
	// Must be well-formed XML.
	dec := xml.NewDecoder(strings.NewReader(out))
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				break
			}
			t.Fatalf("invalid XML: %v", err)
		}
	}
	// One rect per fragment plus the background.
	wantRects := len(res.Graph.Fragments) + 1
	if got := strings.Count(out, "<rect"); got != wantRects {
		t.Fatalf("rect count = %d, want %d", got, wantRects)
	}
	// The cross forces one conflict line.
	if res.Conflicts > 0 && !strings.Contains(out, `stroke="red"`) {
		t.Fatal("conflict line missing")
	}
}

func TestWriteResultFile(t *testing.T) {
	res := testResult(t)
	path := filepath.Join(t.TempDir(), "out.svg")
	if err := WriteResultFile(path, res); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Fatal("empty SVG file")
	}
}
