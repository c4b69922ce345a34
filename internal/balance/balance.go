// Package balance implements mask-density balancing, the natural extension
// of the DAC'14 decomposer toward the balanced-density objective of Yu et
// al.'s ICCAD'13 triple-patterning work (the paper's reference [10]): after
// color assignment, exposure masks should carry comparable pattern density,
// or some masks print far off their process window.
//
// The balancer exploits the same observation as the division pipeline's
// reassembly: rotating every vertex of a connected component by the same
// color offset changes no conflict and no stitch (color equality is
// rotation-invariant), but redistributes area across masks. Components are
// therefore rotated greedily — largest area first — to minimize the spread
// between the heaviest and lightest mask.
package balance

import (
	"sort"

	"mpl/internal/graph"
)

// Spread measures imbalance: (max − min) / mean of the per-mask totals.
// Zero means perfectly balanced; the metric is scale-free.
func Spread(areas []int64) float64 {
	if len(areas) == 0 {
		return 0
	}
	minA, maxA, sum := areas[0], areas[0], int64(0)
	for _, a := range areas {
		if a < minA {
			minA = a
		}
		if a > maxA {
			maxA = a
		}
		sum += a
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(areas))
	return float64(maxA-minA) / mean
}

// MaskAreas totals per-mask area for a coloring, given each vertex's area.
func MaskAreas(colors []int, areas []int64, k int) []int64 {
	out := make([]int64, k)
	for v, c := range colors {
		if c >= 0 && c < k {
			out[c] += areas[v]
		}
	}
	return out
}

// Rebalance rotates the colors of each connected component of g to even
// out per-mask area. colors is modified in place and returned. The
// transformation is exactly cost-preserving: conflict and stitch counts
// are invariant under per-component rotation because components share no
// edges.
func Rebalance(g *graph.Graph, colors []int, areas []int64, k int) []int {
	if len(colors) != g.N() || len(areas) != g.N() {
		panic("balance: slice lengths must match graph order")
	}
	if k < 2 {
		panic("balance: k must be >= 2")
	}
	comps := g.Components()

	// Per-component area histograms by current color.
	type compInfo struct {
		verts []int
		hist  []int64
		total int64
	}
	infos := make([]compInfo, 0, len(comps))
	for _, comp := range comps {
		ci := compInfo{verts: comp, hist: make([]int64, k)}
		for _, v := range comp {
			if c := colors[v]; c >= 0 && c < k {
				ci.hist[c] += areas[v]
				ci.total += areas[v]
			}
		}
		infos = append(infos, ci)
	}
	// Largest components first: their rotation choices matter most, and
	// small components then fine-tune the residual imbalance.
	sort.SliceStable(infos, func(i, j int) bool { return infos[i].total > infos[j].total })

	running := make([]int64, k)
	trial := make([]int64, k)
	for _, ci := range infos {
		bestRot, bestSpread := 0, 0.0
		for r := 0; r < k; r++ {
			copy(trial, running)
			for c := 0; c < k; c++ {
				trial[(c+r)%k] += ci.hist[c]
			}
			s := Spread(trial)
			if r == 0 || s < bestSpread {
				bestSpread = s
				bestRot = r
			}
		}
		for c := 0; c < k; c++ {
			running[(c+bestRot)%k] += ci.hist[c]
		}
		if bestRot != 0 {
			for _, v := range ci.verts {
				if colors[v] >= 0 {
					colors[v] = (colors[v] + bestRot) % k
				}
			}
		}
	}
	return colors
}
