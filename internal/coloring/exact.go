package coloring

import (
	"cmp"
	"context"
	"slices"

	"mpl/internal/graph"
)

// WArc is a weighted adjacency entry of a merged graph.
type WArc struct {
	To     int
	Weight int
}

// Weighted is a vertex-weighted multigraph: the merged graph of Algorithm 1.
// Merging vertex groups collapses parallel edges into integer weights, so a
// conflict between two merged groups costs Weight original conflicts.
type Weighted struct {
	NumV int
	Conf [][]WArc
	Stit [][]WArc
}

// NewWeighted returns an empty weighted graph on n vertices.
func NewWeighted(n int) *Weighted {
	return &Weighted{
		NumV: n,
		Conf: make([][]WArc, n),
		Stit: make([][]WArc, n),
	}
}

func addWArc(adj [][]WArc, u, v, w int) {
	for i := range adj[u] {
		if adj[u][i].To == v {
			adj[u][i].Weight += w
			return
		}
	}
	adj[u] = append(adj[u], WArc{To: v, Weight: w})
}

// AddConflict accumulates conflict weight between u and v.
func (w *Weighted) AddConflict(u, v, wt int) {
	addWArc(w.Conf, u, v, wt)
	addWArc(w.Conf, v, u, wt)
}

// AddStitch accumulates stitch weight between u and v.
func (w *Weighted) AddStitch(u, v, wt int) {
	addWArc(w.Stit, u, v, wt)
	addWArc(w.Stit, v, u, wt)
}

// FromGraph converts a plain decomposition graph into unit-weight form.
func FromGraph(g *graph.Graph) *Weighted {
	w := NewWeighted(g.N())
	for _, e := range g.ConflictEdges() {
		w.AddConflict(e.U, e.V, 1)
	}
	for _, e := range g.StitchEdges() {
		w.AddStitch(e.U, e.V, 1)
	}
	return w
}

// CountWeighted returns the weighted conflict and stitch totals of a
// complete assignment on the merged graph.
func (w *Weighted) CountWeighted(colors []int) (conflicts, stitches int) {
	for u := 0; u < w.NumV; u++ {
		for _, a := range w.Conf[u] {
			if a.To > u && colors[u] == colors[a.To] {
				conflicts += a.Weight
			}
		}
		for _, a := range w.Stit[u] {
			if a.To > u && colors[u] != colors[a.To] {
				stitches += a.Weight
			}
		}
	}
	return conflicts, stitches
}

// BacktrackResult reports an exact (or node-limited) search outcome.
type BacktrackResult struct {
	Colors    []int
	Conflicts int
	Stitches  int
	// Proven is true when the search space was exhausted, making the
	// result optimal for the merged graph.
	Proven bool
	Nodes  int64
}

// BacktrackNodeLimit is the node cap a nodeLimit ≤ 0 selects, and the cap
// every served SDP+Backtrack search runs under. It is the smallest cap at
// which the bounded search's conflict and cost totals on C6288-class K=5
// layouts are no worse than the unbounded search's were at its former
// 2,000,000-node cap (EXPERIMENTS.md, "Forced-conflict bound").
const BacktrackNodeLimit = 200_000

// BacktrackContext performs the branch-and-bound backtracking of Algorithm 1
// (lines 7–19) on the merged graph: it enumerates color assignments in a
// static order (descending weighted conflict degree), prunes when the
// partial cost plus a lower bound on the uncolored vertices reaches the
// incumbent, and breaks color symmetry by only allowing each vertex one
// fresh color beyond those already used. nodeLimit bounds the search; 0
// means BacktrackNodeLimit nodes. ctx is polled every 1024 entered nodes,
// and on cancellation the search stops and the incumbent (at worst the
// greedy seed) is returned with Proven=false — exactly the node-limit
// behavior, triggered by deadline instead of count.
//
// The search is an iterative depth-first walk with an explicit per-depth
// stack. Its contract is the tree itself: every entered node (root and leaf
// included, and every child pruned on entry) counts one toward Nodes, ctx is
// polled when the count is a multiple of 1024, the search stops once the
// count exceeds nodeLimit, and a node is pruned when its partial cost plus
// its bound reaches the incumbent's. Node-capped searches return whatever
// incumbent the first nodeLimit nodes found, so their output is a function
// of this exact walk; none of it may change without changing served bytes.
//
// The bound is the number of conflicts already forced on the uncolored
// positions: LB = Σ over uncolored u of min over colors c of u's conflict
// weight to colored neighbours of color c. Every completion of the partial
// coloring pays at least C+LB conflicts and S stitches, so a pruned subtree
// holds no leaf that would replace the incumbent: the bounded walk finds the
// unbounded walk's incumbents in the same order, and a proven search returns
// the same result with fewer nodes. Partial costs are integer tallies
// combined as float64(C+LB)+α·float64(S), the same expression the incumbent
// is scored with, so no prune hinges on accumulated float rounding; α must
// be ≥ 0. Conf and Stit must be symmetric, with non-negative weights, as
// AddConflict and AddStitch build them.
func (w *Weighted) BacktrackContext(ctx context.Context, k int, alpha float64, nodeLimit int64) BacktrackResult {
	n := w.NumV
	if nodeLimit <= 0 {
		nodeLimit = BacktrackNodeLimit
	}
	if n == 0 {
		return BacktrackResult{Colors: []int{}, Proven: true}
	}
	// Colors a position can take: at most min(k, depth+1). An uncolored
	// position has at most n-1 colored neighbours, so when k > n some
	// column of its tallies is zero and the minimum over width columns is
	// the minimum over all k colors.
	width := max(min(k, n), 1)

	// One arena for every per-vertex and per-depth integer array.
	buf := make([]int, 7*n+2*(n+1)+4*(n+1)+2*n*width)
	carve := func(m int) []int {
		s := buf[:m:m]
		buf = buf[m:]
		return s
	}
	order, pos := carve(n), carve(n)
	wdeg, sdeg := carve(n), carve(n)
	stTot := carve(n)                                // weight of stitches to earlier positions
	col := carve(n)                                  // col[d]: color of position d on the current path
	mins := carve(n)                                 // mins[u]: min over colors of confT[u*width:]
	soff, coff := carve(n+1), carve(n+1)             // CSR offsets: earlier stitches, later conflicts
	used := carve(n + 1)                             // used[d]: colors in use among positions < d
	tc, ts, lb := carve(n+1), carve(n+1), carve(n+1) // tallies and bound entering depth d
	confT, ds := carve(n*width), carve(n*width)      // per-position conflict tallies, per-depth stitch deltas

	// Static order: descending weighted conflict degree, then stitch degree.
	for v := 0; v < n; v++ {
		order[v] = v
		for _, a := range w.Conf[v] {
			wdeg[v] += a.Weight
		}
		for _, a := range w.Stit[v] {
			sdeg[v] += a.Weight
		}
	}
	slices.SortStableFunc(order, func(a, b int) int {
		if wdeg[a] != wdeg[b] {
			return cmp.Compare(wdeg[b], wdeg[a])
		}
		return cmp.Compare(sdeg[b], sdeg[a])
	})
	for i, v := range order {
		pos[v] = i
	}

	// Greedy incumbent so a node-limited search still returns something.
	best := w.greedyColors(order, k, alpha)
	bestC, bestS := w.CountWeighted(best)
	bestCost := float64(bestC) + alpha*float64(bestS)

	done := ctx.Done()
	select {
	case <-done: // already cancelled: return the greedy incumbent
		return BacktrackResult{Colors: best, Conflicts: bestC, Stitches: bestS}
	default:
	}

	// Per-position CSR lists addressed by position: stitches to earlier
	// positions (read when a position is expanded) and conflicts to later
	// ones (pushed into their tallies when a position is colored). A
	// counting pass sizes the arena, a second pass fills it.
	m := 0
	for p, v := range order {
		for _, a := range w.Stit[v] {
			if pos[a.To] < p {
				m++
			}
		}
		for _, a := range w.Conf[v] {
			if pos[a.To] > p {
				m++
			}
		}
	}
	arcs := make([]WArc, m)
	m = 0
	for p, v := range order {
		soff[p] = m
		for _, a := range w.Stit[v] {
			if q := pos[a.To]; q < p {
				arcs[m] = WArc{To: q, Weight: a.Weight}
				stTot[p] += a.Weight
				m++
			}
		}
	}
	soff[n] = m
	for p, v := range order {
		coff[p] = m
		for _, a := range w.Conf[v] {
			if q := pos[a.To]; q > p {
				arcs[m] = WArc{To: q, Weight: a.Weight}
				m++
			}
		}
	}
	coff[n] = m

	// color pushes position d's color c into the tallies of its later
	// neighbours and returns the bound's increase. A minimum moves only
	// when c was the neighbour's cheapest color.
	color := func(d, c int) (grow int) {
		for _, a := range arcs[coff[d]:coff[d+1]] {
			t := confT[a.To*width : a.To*width+width]
			if t[c] == mins[a.To] {
				t[c] += a.Weight
				lo := t[0]
				for _, x := range t[1:] {
					lo = min(lo, x)
				}
				grow += lo - mins[a.To]
				mins[a.To] = lo
			} else {
				t[c] += a.Weight
			}
		}
		return grow
	}
	// uncolor undoes color(d, c): the old minimum is the smaller of the
	// current one and the restored tally.
	uncolor := func(d, c int) {
		for _, a := range arcs[coff[d]:coff[d+1]] {
			t := &confT[a.To*width+c]
			*t -= a.Weight
			mins[a.To] = min(mins[a.To], *t)
		}
	}

	nodes := int64(1) // the root: no colors, zero cost and zero bound
	exhausted := true
	d := 0 // depth of the node whose children are being scanned
	if 0 < bestCost-1e-12 && k > 0 {
		col[0] = -1 // the root has no earlier neighbours: ds[0:width] stays zero
	search:
		for {
			c := col[d] + 1
			if c >= min(used[d]+1, k) {
				// Children exhausted: back up to the parent's next color.
				if d == 0 {
					break
				}
				d--
				uncolor(d, col[d])
				continue
			}
			col[d] = c
			nodes++
			if nodes&1023 == 0 {
				select {
				case <-done:
					exhausted = false
					break search
				default:
				}
			}
			if nodes > nodeLimit {
				exhausted = false
				break
			}
			cc := tc[d] + confT[d*width+c]
			sc := ts[d] + stTot[d] - ds[d*width+c]
			if d+1 == n {
				if cost := float64(cc) + alpha*float64(sc); cost < bestCost-1e-12 {
					bestCost, bestC, bestS = cost, cc, sc
					for p, v := range order {
						best[v] = col[p]
					}
				}
				continue
			}
			// Every later minimum only grows, so LB − mins[d] bounds each
			// child before its update is paid for.
			bound := lb[d] - mins[d]
			if float64(cc+bound)+alpha*float64(sc) >= bestCost-1e-12 {
				continue
			}
			bound += color(d, c)
			if float64(cc+bound)+alpha*float64(sc) >= bestCost-1e-12 {
				uncolor(d, c)
				continue
			}
			tc[d+1], ts[d+1], lb[d+1] = cc, sc, bound
			used[d+1] = used[d]
			if c == used[d] {
				used[d+1]++
			}
			d++
			col[d] = -1
			// Expand position d: one pass over its earlier stitches fills
			// the same-color stitch weight of every candidate color.
			sd := ds[d*width : d*width+min(used[d]+1, k)]
			clear(sd)
			for _, a := range arcs[soff[d]:soff[d+1]] {
				sd[col[a.To]] += a.Weight
			}
		}
	}

	return BacktrackResult{
		Colors:    best,
		Conflicts: bestC,
		Stitches:  bestS,
		Proven:    exhausted,
		Nodes:     nodes,
	}
}

// greedyColors colors vertices in the given order, picking the locally
// cheapest color (ties to the lowest index).
func (w *Weighted) greedyColors(order []int, k int, alpha float64) []int {
	colors := make([]int, w.NumV)
	for i := range colors {
		colors[i] = Uncolored
	}
	for _, v := range order {
		bestCol, bestCost := 0, 1e18
		for c := 0; c < k; c++ {
			d := 0.0
			for _, a := range w.Conf[v] {
				if colors[a.To] == c {
					d += float64(a.Weight)
				}
			}
			for _, a := range w.Stit[v] {
				if colors[a.To] != Uncolored && colors[a.To] != c {
					d += alpha * float64(a.Weight)
				}
			}
			if d < bestCost {
				bestCost = d
				bestCol = c
			}
		}
		colors[v] = bestCol
	}
	return colors
}
