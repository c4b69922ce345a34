package coloring

import (
	"sort"

	"mpl/internal/graph"
)

// Order selects the stage-2 vertex ordering of Algorithm 2.
type Order int

// Vertex orders. OrderAuto is the paper's peer selection: all three orders
// run and the best result wins; the specific values force one order (used
// by the ablation study).
const (
	OrderAuto Order = iota
	OrderSequence
	OrderDegree
	OrderThreeRound
)

// String implements fmt.Stringer.
func (o Order) String() string {
	switch o {
	case OrderAuto:
		return "peer-selection"
	case OrderSequence:
		return "sequence"
	case OrderDegree:
		return "degree"
	case OrderThreeRound:
		return "3round"
	}
	return "unknown"
}

// LinearOptions configures the linear color assignment (Algorithm 2).
type LinearOptions struct {
	// K is the number of masks.
	K int
	// Alpha is the stitch weight (paper: 0.1).
	Alpha float64
	// DisableColorFriendly turns off Definition 2's same-color hints
	// (used by the ablation study; the paper always keeps them on).
	DisableColorFriendly bool
	// Order forces a single stage-2 vertex order; OrderAuto (zero) keeps
	// the paper's peer selection over all three.
	Order Order
}

// friendWeight is the soft bonus for matching a color-friendly neighbor;
// it stays below the paper's α = 0.1 so hints never outweigh real stitch
// costs.
const friendWeight = 0.05

// linearMaxStitchDegree is the paper's dstit bound of the stage-1 removal.
const linearMaxStitchDegree = 2

// Linear implements Algorithm 2, the O(n) three-stage color assignment:
//
//  1. iteratively remove non-critical vertices (dconf < K, dstit < 2) onto
//     a stack;
//  2. color the remaining core greedily under three simultaneous vertex
//     orders — SEQUENCE, DEGREE, 3ROUND — consulting color-friendly
//     neighbors (Definition 2), and keep the best of the three
//     (peer selection);
//  3. post-refine each vertex once, then pop the stack assigning each
//     vertex a legal color (one is always conflict-free, by construction).
func Linear(g *graph.Graph, opts LinearOptions) []int {
	if opts.K < 2 {
		panic("coloring: Linear needs K >= 2")
	}
	n := g.N()
	colors := make([]int, n)
	for i := range colors {
		colors[i] = Uncolored
	}
	if n == 0 {
		return colors
	}

	// Stage 1: removal.
	stack, core := g.PeelOrder(opts.K, linearMaxStitchDegree)

	// Stage 2: peer selection across the three orders (or the single
	// order forced by the ablation option).
	if len(core) > 0 {
		var orders [][]int
		switch opts.Order {
		case OrderSequence:
			orders = [][]int{sequenceOrder(core)}
		case OrderDegree:
			orders = [][]int{degreeOrder(g, core)}
		case OrderThreeRound:
			orders = [][]int{threeRoundOrder(g, core, opts.K)}
		default:
			orders = [][]int{
				sequenceOrder(core),
				degreeOrder(g, core),
				threeRoundOrder(g, core, opts.K),
			}
		}
		var bestColors []int
		bestC, bestS := 0, 0
		for i, ord := range orders {
			trial := make([]int, n)
			for j := range trial {
				trial[j] = Uncolored
			}
			for _, v := range ord {
				trial[v] = chooseColor(g, trial, v, opts)
			}
			c, s := Count(g, trial)
			if i == 0 || better(c, s, bestC, bestS) {
				bestColors, bestC, bestS = trial, c, s
			}
		}
		copy(colors, bestColors)

		// Stage 3a: post-refinement — one greedy improvement pass.
		postRefine(g, colors, core, opts)
	}

	// Stage 3b: pop the stack, always picking a legal color.
	for i := len(stack) - 1; i >= 0; i-- {
		v := stack[i]
		colors[v] = chooseColor(g, colors, v, opts)
	}
	return colors
}

// sequenceOrder is SEQUENCE-COLORING's order: graph construction order.
func sequenceOrder(core []int) []int {
	return append([]int(nil), core...)
}

// degreeOrder is DEGREE-COLORING's order: descending conflict degree
// (most-constrained first), stitch degree as tiebreak.
func degreeOrder(g *graph.Graph, core []int) []int {
	ord := append([]int(nil), core...)
	sort.SliceStable(ord, func(i, j int) bool {
		a, b := ord[i], ord[j]
		da, db := g.ConflictDegree(a), g.ConflictDegree(b)
		if da != db {
			return da > db
		}
		return g.StitchDegree(a) > g.StitchDegree(b)
	})
	return ord
}

// threeRoundOrder is our reading of 3ROUND-COLORING (the paper names but
// does not define it; see DESIGN.md §5): three criticality rounds —
// (1) vertices with conflict degree ≥ K, (2) their uncolored conflict
// neighbors, (3) everything else — each round sorted by descending degree.
func threeRoundOrder(g *graph.Graph, core []int, k int) []int {
	inCore := make(map[int]bool, len(core))
	for _, v := range core {
		inCore[v] = true
	}
	round := make(map[int]int, len(core))
	for _, v := range core {
		if g.ConflictDegree(v) >= k {
			round[v] = 1
		} else {
			round[v] = 3
		}
	}
	for _, v := range core {
		if round[v] != 1 {
			continue
		}
		for _, w := range g.ConflictNeighbors(v) {
			if inCore[int(w)] && round[int(w)] == 3 {
				round[int(w)] = 2
			}
		}
	}
	ord := append([]int(nil), core...)
	sort.SliceStable(ord, func(i, j int) bool {
		a, b := ord[i], ord[j]
		if round[a] != round[b] {
			return round[a] < round[b]
		}
		return g.ConflictDegree(a) > g.ConflictDegree(b)
	})
	return ord
}

// chooseColor picks the cheapest color for v against the currently colored
// graph: conflicts cost 1, stitch mismatches cost α, and each
// color-friendly neighbor of the same color grants a small bonus
// (Definition 2's rule that color-friendly patterns tend to share a color).
// Ties resolve to the lowest color index.
func chooseColor(g *graph.Graph, colors []int, v int, opts LinearOptions) int {
	bestCol, bestCost := 0, 1e18
	for c := 0; c < opts.K; c++ {
		cost := 0.0
		for _, w := range g.ConflictNeighbors(v) {
			if colors[w] == c {
				cost++
			}
		}
		for _, w := range g.StitchNeighbors(v) {
			if colors[w] != Uncolored && colors[w] != c {
				cost += opts.Alpha
			}
		}
		if !opts.DisableColorFriendly {
			for _, w := range g.FriendNeighbors(v) {
				if colors[w] == c {
					cost -= friendWeight
				}
			}
		}
		if cost < bestCost-1e-12 {
			bestCost = cost
			bestCol = c
		}
	}
	return bestCol
}

// postRefine performs the stage-3 greedy improvement: each vertex is
// visited once and recolored if a different color strictly lowers the
// actual objective (conflicts + α·stitches, no friend bonus).
func postRefine(g *graph.Graph, colors []int, verts []int, opts LinearOptions) {
	for _, v := range verts {
		cur := colors[v]
		if cur == Uncolored {
			continue
		}
		localCost := func(c int) float64 {
			cost := 0.0
			for _, w := range g.ConflictNeighbors(v) {
				if colors[w] == c {
					cost++
				}
			}
			for _, w := range g.StitchNeighbors(v) {
				if colors[w] != Uncolored && colors[w] != c {
					cost += opts.Alpha
				}
			}
			return cost
		}
		bestCol, bestCost := cur, localCost(cur)
		for c := 0; c < opts.K; c++ {
			if c == cur {
				continue
			}
			if cost := localCost(c); cost < bestCost-1e-12 {
				bestCost = cost
				bestCol = c
			}
		}
		colors[v] = bestCol
	}
}
