// Package layout defines the layout model consumed by the decomposer: a set
// of polygonal features on a single layer together with the process
// parameters of the DAC'14 paper (minimum feature width wm, minimum spacing
// sm, half pitch hp) and a plain-text serialization so benchmark layouts can
// be generated once and decomposed by the command-line tools.
package layout

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"

	"mpl/internal/geom"
)

// Process carries the technology parameters used to derive coloring
// distances. The paper scales Metal1 to a 20 nm half pitch with
// wm = sm = 20 nm; mins for quadruple patterning is 2·sm + 2·wm = 80 nm and
// for pentuple patterning 3·sm + 2.5·wm = 110 nm.
type Process struct {
	// MinWidth is the minimum feature width wm in database units.
	MinWidth int
	// MinSpace is the minimum feature spacing sm in database units.
	MinSpace int
	// HalfPitch is hp = (wm+sm)/2 ... the paper's 20 nm half pitch equals
	// MinWidth when wm = sm; stored explicitly so tests can vary it.
	HalfPitch int
}

// DefaultProcess returns the 20 nm half-pitch process of the paper.
func DefaultProcess() Process {
	return Process{MinWidth: 20, MinSpace: 20, HalfPitch: 20}
}

// MinColoringDistance returns the paper's mins for a mask count K:
// K = 4 → 2·sm + 2·wm; K = 5 → 3·sm + 2.5·wm (Section 6). Other K
// interpolate the same progression: (K-2)·sm + (K/2)·wm.
func (p Process) MinColoringDistance(k int) int {
	switch {
	case k <= 3:
		return 2*p.MinSpace + p.MinWidth // the TPL distance of Fig. 7
	case k == 4:
		return 2*p.MinSpace + 2*p.MinWidth
	case k == 5:
		return 3*p.MinSpace + (5*p.MinWidth)/2
	default:
		return (k-2)*p.MinSpace + (k*p.MinWidth)/2
	}
}

// Layout is a named collection of polygonal features on one layer.
type Layout struct {
	Name     string
	Process  Process
	Features []geom.Polygon
}

// New returns an empty layout with the default process.
func New(name string) *Layout {
	return &Layout{Name: name, Process: DefaultProcess()}
}

// Add appends a feature and returns its index.
func (l *Layout) Add(pg geom.Polygon) int {
	l.Features = append(l.Features, pg)
	return len(l.Features) - 1
}

// AddRect appends a single-rectangle feature and returns its index.
func (l *Layout) AddRect(r geom.Rect) int {
	return l.Add(geom.NewPolygon(r))
}

// Bounds returns the bounding box of all features; the zero Rect when empty.
func (l *Layout) Bounds() geom.Rect {
	if len(l.Features) == 0 {
		return geom.Rect{}
	}
	b := l.Features[0].Bounds()
	for _, f := range l.Features[1:] {
		b = b.Union(f.Bounds())
	}
	return b
}

// RectCount returns the total number of rectangles across features.
func (l *Layout) RectCount() int {
	n := 0
	for _, f := range l.Features {
		n += len(f.Rects)
	}
	return n
}

// Validate checks structural invariants: every feature valid and connected.
func (l *Layout) Validate() error {
	for i := range l.Features {
		if err := l.ValidateFeature(i); err != nil {
			return err
		}
	}
	return l.ValidateProcess()
}

// ValidateFeature checks that feature i is valid and connected — the
// per-feature half of Validate, for callers that changed only a few
// features of an already validated layout.
func (l *Layout) ValidateFeature(i int) error {
	f := l.Features[i]
	if !f.Valid() {
		return fmt.Errorf("layout %q: feature %d invalid", l.Name, i)
	}
	if !f.Connected() {
		return fmt.Errorf("layout %q: feature %d is disconnected", l.Name, i)
	}
	return nil
}

// ValidateProcess checks that the process parameters are positive.
func (l *Layout) ValidateProcess() error {
	if l.Process.MinWidth <= 0 || l.Process.MinSpace <= 0 || l.Process.HalfPitch <= 0 {
		return fmt.Errorf("layout %q: non-positive process parameters %+v", l.Name, l.Process)
	}
	return nil
}

// Write serializes the layout in the .lay text format:
//
//	layout <name>
//	process <wm> <sm> <hp>
//	feature
//	rect <x0> <y0> <x1> <y1>
//	...
//	end
//
// One "feature"/"end" block per polygon.
func (l *Layout) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "layout %s\n", sanitizeName(l.Name))
	fmt.Fprintf(bw, "process %d %d %d\n", l.Process.MinWidth, l.Process.MinSpace, l.Process.HalfPitch)
	for _, f := range l.Features {
		fmt.Fprintln(bw, "feature")
		for _, r := range f.Rects {
			fmt.Fprintf(bw, "rect %d %d %d %d\n", r.X0, r.Y0, r.X1, r.Y1)
		}
		fmt.Fprintln(bw, "end")
	}
	return bw.Flush()
}

func sanitizeName(s string) string {
	if s == "" {
		return "unnamed"
	}
	return strings.Join(strings.Fields(s), "_")
}

// Read parses the .lay text format produced by Write.
func Read(r io.Reader) (*Layout, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	l := New("unnamed")
	var cur *geom.Polygon
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		switch fields[0] {
		case "layout":
			if len(fields) != 2 {
				return nil, fmt.Errorf("line %d: layout needs a name", line)
			}
			l.Name = fields[1]
		case "process":
			if len(fields) != 4 {
				return nil, fmt.Errorf("line %d: process needs wm sm hp", line)
			}
			var p Process
			if _, err := fmt.Sscanf(strings.Join(fields[1:], " "), "%d %d %d",
				&p.MinWidth, &p.MinSpace, &p.HalfPitch); err != nil {
				return nil, fmt.Errorf("line %d: bad process: %v", line, err)
			}
			l.Process = p
		case "feature":
			if cur != nil {
				return nil, fmt.Errorf("line %d: nested feature", line)
			}
			cur = &geom.Polygon{}
		case "rect":
			if cur == nil {
				return nil, fmt.Errorf("line %d: rect outside feature", line)
			}
			if len(fields) != 5 {
				return nil, fmt.Errorf("line %d: rect needs 4 coordinates", line)
			}
			var x0, y0, x1, y1 int
			if _, err := fmt.Sscanf(strings.Join(fields[1:], " "), "%d %d %d %d",
				&x0, &y0, &x1, &y1); err != nil {
				return nil, fmt.Errorf("line %d: bad rect: %v", line, err)
			}
			rc := geom.Rect{X0: x0, Y0: y0, X1: x1, Y1: y1}
			if !rc.Valid() {
				return nil, fmt.Errorf("line %d: invalid rect %v", line, rc)
			}
			cur.Rects = append(cur.Rects, rc)
		case "end":
			if cur == nil {
				return nil, fmt.Errorf("line %d: end outside feature", line)
			}
			if len(cur.Rects) == 0 {
				return nil, fmt.Errorf("line %d: empty feature", line)
			}
			l.Features = append(l.Features, *cur)
			cur = nil
		default:
			return nil, fmt.Errorf("line %d: unknown directive %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if cur != nil {
		return nil, fmt.Errorf("unterminated feature at EOF")
	}
	return l, nil
}

// WriteFile serializes the layout to path.
func (l *Layout) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := l.Write(f); err != nil {
		return err
	}
	return f.Close()
}

// ReadFile parses a .lay file from disk.
func ReadFile(path string) (*Layout, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
