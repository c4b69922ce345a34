// Package viz renders layouts and decomposition results as SVG, the
// inspection format for the examples and the qpld tool: each mask gets a
// distinct fill color, conflicts are drawn as connecting lines, and stitch
// cuts as dashed marks — the visual language of the paper's figures.
package viz

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"mpl/internal/core"
	"mpl/internal/geom"
)

// maskPalette holds fill colors for up to eight masks (K ≤ 8 covers every
// configuration the paper discusses).
var maskPalette = []string{
	"#4363d8", // blue
	"#e6194b", // red
	"#3cb44b", // green
	"#ffe119", // yellow
	"#911eb4", // purple
	"#f58231", // orange
	"#42d4f4", // cyan
	"#f032e6", // magenta
}

// scale multiplies database units into SVG units.
const scale = 0.5

// WriteResult renders a decomposition result: fragments filled by mask, a
// red line between every conflicting same-mask pair, and a dashed mark
// between stitch-linked fragments of different masks.
func WriteResult(w io.Writer, r *core.Result) error {
	bw := bufio.NewWriter(w)

	bounds := geom.Rect{}
	first := true
	for _, fr := range r.Graph.Fragments {
		b := fr.Shape.Bounds()
		if first {
			bounds = b
			first = false
		} else {
			bounds = bounds.Union(b)
		}
	}
	bounds = bounds.Expand(40)
	width := float64(bounds.Width()) * scale
	height := float64(bounds.Height()) * scale
	fmt.Fprintf(bw, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n",
		width, height, width, height)
	fmt.Fprintf(bw, `<rect width="100%%" height="100%%" fill="white"/>`+"\n")

	// Flip y: layout coordinates grow up, SVG grows down.
	tx := func(x int) float64 { return float64(x-bounds.X0) * scale }
	ty := func(y int) float64 { return float64(bounds.Y1-y) * scale }

	for i, fr := range r.Graph.Fragments {
		color := "#808080"
		if c := r.Colors[i]; c >= 0 && c < len(maskPalette) {
			color = maskPalette[c]
		}
		for _, rc := range fr.Shape.Rects {
			fmt.Fprintf(bw, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s" stroke="black" stroke-width="0.4"/>`+"\n",
				tx(rc.X0), ty(rc.Y1), float64(rc.Width())*scale, float64(rc.Height())*scale, color)
		}
	}

	for _, e := range r.Graph.G.ConflictEdges() {
		if r.Colors[e.U] != r.Colors[e.V] {
			continue
		}
		cu := r.Graph.Fragments[e.U].Shape.Bounds().Center()
		cv := r.Graph.Fragments[e.V].Shape.Bounds().Center()
		fmt.Fprintf(bw, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="red" stroke-width="2"/>`+"\n",
			tx(cu.X), ty(cu.Y), tx(cv.X), ty(cv.Y))
	}
	for _, e := range r.Graph.G.StitchEdges() {
		if r.Colors[e.U] == r.Colors[e.V] {
			continue
		}
		cu := r.Graph.Fragments[e.U].Shape.Bounds().Center()
		cv := r.Graph.Fragments[e.V].Shape.Bounds().Center()
		fmt.Fprintf(bw, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="black" stroke-width="1.5" stroke-dasharray="3,3"/>`+"\n",
			tx(cu.X), ty(cu.Y), tx(cv.X), ty(cv.Y))
	}

	fmt.Fprintln(bw, `</svg>`)
	return bw.Flush()
}

// WriteResultFile renders to a file path.
func WriteResultFile(path string, r *core.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := WriteResult(f, r); err != nil {
		return err
	}
	return f.Close()
}
