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

// Backtrack performs the branch-and-bound backtracking of Algorithm 1
// (lines 7–19) on the merged graph: it enumerates color assignments in a
// static order (descending weighted conflict degree), prunes when the
// partial cost reaches the incumbent, and breaks color symmetry by only
// allowing each vertex one fresh color beyond those already used.
// nodeLimit bounds the search; 0 means 2,000,000 nodes.
func (w *Weighted) Backtrack(k int, alpha float64, nodeLimit int64) BacktrackResult {
	return w.BacktrackContext(context.Background(), k, alpha, nodeLimit)
}

// BacktrackContext is Backtrack with cooperative cancellation: ctx is polled
// every 1024 expanded nodes, and on cancellation the search stops and the
// incumbent (at worst the greedy seed) is returned with Proven=false —
// exactly the node-limit behavior, triggered by deadline instead of count.
//
// The search is an iterative depth-first walk with an explicit per-depth
// stack. Its contract is the tree itself: every entered node (root and leaf
// included) counts one toward Nodes, ctx is polled when the count is a
// multiple of 1024, the search stops once the count exceeds nodeLimit, and a
// node is pruned when its partial cost reaches the incumbent's. Node-capped
// searches return whatever incumbent the first nodeLimit nodes found, so
// their output is a function of this exact walk; none of it may change
// without changing served bytes. Partial costs are integer conflict and
// stitch tallies combined as float64(C)+α·float64(S), the same expression
// the incumbent is scored with, so no prune hinges on accumulated float
// rounding. Conf and Stit must be symmetric, as AddConflict and AddStitch
// build them.
func (w *Weighted) BacktrackContext(ctx context.Context, k int, alpha float64, nodeLimit int64) BacktrackResult {
	n := w.NumV
	if nodeLimit <= 0 {
		nodeLimit = 2_000_000
	}
	if n == 0 {
		return BacktrackResult{Colors: []int{}, Proven: true}
	}
	width := max(min(k, n), 1) // colors a position can take: at most min(k, depth+1)

	// One arena for every per-vertex and per-depth integer array.
	buf := make([]int, 6*n+(2*n+1)+3*(n+1)+2*n*width)
	carve := func(m int) []int {
		s := buf[:m:m]
		buf = buf[m:]
		return s
	}
	order, pos := carve(n), carve(n)
	wdeg, sdeg := carve(n), carve(n)
	stTot := carve(n)                        // weight of stitches to earlier positions
	col := carve(n)                          // col[d]: color of position d on the current path
	off := carve(2*n + 1)                    // CSR offsets: conflicts of d, then stitches of d
	used := carve(n + 1)                     // used[d]: colors in use among positions < d
	tc, ts := carve(n+1), carve(n+1)         // conflict/stitch tallies entering depth d
	dc, ds := carve(n*width), carve(n*width) // per-depth, per-color deltas

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

	// Per-position CSR of earlier neighbours, addressed by position: a
	// counting pass sizes the arena, a second pass fills it.
	m := 0
	for p, v := range order {
		for _, a := range w.Conf[v] {
			if pos[a.To] < p {
				m++
			}
		}
		for _, a := range w.Stit[v] {
			if pos[a.To] < p {
				m++
			}
		}
	}
	arcs := make([]WArc, m)
	m = 0
	for p, v := range order {
		off[2*p] = m
		for _, a := range w.Conf[v] {
			if q := pos[a.To]; q < p {
				arcs[m] = WArc{To: q, Weight: a.Weight}
				m++
			}
		}
		off[2*p+1] = m
		for _, a := range w.Stit[v] {
			if q := pos[a.To]; q < p {
				arcs[m] = WArc{To: q, Weight: a.Weight}
				stTot[p] += a.Weight
				m++
			}
		}
	}
	off[2*n] = m

	var nodes int64
	exhausted := true
	d := 0 // depth of the node being entered: positions < d are colored
search:
	for {
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
		if cost := float64(tc[d]) + alpha*float64(ts[d]); cost < bestCost-1e-12 {
			if d == n {
				bestCost, bestC, bestS = cost, tc[d], ts[d]
				for p, v := range order {
					best[v] = col[p]
				}
			} else if lim := min(used[d]+1, k); lim > 0 {
				// Expand position d: one pass over its earlier neighbours
				// fills the conflict and same-color stitch weight of every
				// candidate color.
				cd, sd := dc[d*width:d*width+lim], ds[d*width:d*width+lim]
				clear(cd)
				clear(sd)
				for _, a := range arcs[off[2*d]:off[2*d+1]] {
					cd[col[a.To]] += a.Weight
				}
				for _, a := range arcs[off[2*d+1]:off[2*d+2]] {
					sd[col[a.To]] += a.Weight
				}
				col[d] = 0
				tc[d+1] = tc[d] + cd[0]
				ts[d+1] = ts[d] + stTot[d] - sd[0]
				used[d+1] = max(used[d], 1)
				d++
				continue
			}
		}
		// Backtrack to the deepest position with a color left to try.
		for d > 0 {
			d--
			c := col[d] + 1
			if c < min(used[d]+1, k) {
				col[d] = c
				tc[d+1] = tc[d] + dc[d*width+c]
				ts[d+1] = ts[d] + stTot[d] - ds[d*width+c]
				used[d+1] = used[d]
				if c == used[d] {
					used[d+1]++
				}
				d++
				continue search
			}
		}
		break
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
