package coloring

import (
	"context"
	"slices"
	"sort"
)

// backtrackReference is the recursive-closure branch and bound that the
// iterative kernel in exact.go replaced, with the kernel's forced-conflict
// bound recomputed from scratch at every node. It is the oracle for the
// differential suite and fuzz target in exact_test.go: the kernel must
// return a DeepEqual BacktrackResult (colors, counts, Proven and Nodes) on
// every input.
func (w *Weighted) backtrackReference(ctx context.Context, k int, alpha float64, nodeLimit int64) BacktrackResult {
	return w.referenceWalk(ctx, k, alpha, nodeLimit, true)
}

// backtrackUnbounded is the same walk pruning on the partial cost alone, as
// the kernel did before it had a bound: the second oracle, against which
// TestBoundAdmissible and FuzzBoundDominates check that the bound removes
// only subtrees without an improving leaf.
func (w *Weighted) backtrackUnbounded(ctx context.Context, k int, alpha float64, nodeLimit int64) BacktrackResult {
	return w.referenceWalk(ctx, k, alpha, nodeLimit, false)
}

func (w *Weighted) referenceWalk(ctx context.Context, k int, alpha float64, nodeLimit int64, bounded bool) BacktrackResult {
	n := w.NumV
	if nodeLimit <= 0 {
		nodeLimit = BacktrackNodeLimit
	}
	if n == 0 {
		return BacktrackResult{Colors: []int{}, Proven: true}
	}

	// Static order: descending weighted conflict degree, then stitch degree.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	wdeg := make([]int, n)
	sdeg := make([]int, n)
	for v := 0; v < n; v++ {
		for _, a := range w.Conf[v] {
			wdeg[v] += a.Weight
		}
		for _, a := range w.Stit[v] {
			sdeg[v] += a.Weight
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if wdeg[a] != wdeg[b] {
			return wdeg[a] > wdeg[b]
		}
		return sdeg[a] > sdeg[b]
	})
	pos := make([]int, n) // vertex -> position in order
	for i, v := range order {
		pos[v] = i
	}

	// Greedy incumbent so a node-limited search still returns something.
	greedy := w.greedyColors(order, k, alpha)
	bestC, bestS := w.CountWeighted(greedy)
	best := append([]int(nil), greedy...)
	bestCost := float64(bestC) + alpha*float64(bestS)

	colors := make([]int, n)
	for i := range colors {
		colors[i] = Uncolored
	}
	var nodes int64
	exhausted := true
	stopped := false
	done := ctx.Done()

	// deltaCost returns the cost increase of giving v color c, considering
	// only neighbors earlier in the order (already colored).
	deltaCost := func(v, c int) float64 {
		d := 0.0
		for _, a := range w.Conf[v] {
			if pos[a.To] < pos[v] && colors[a.To] == c {
				d += float64(a.Weight)
			}
		}
		for _, a := range w.Stit[v] {
			if pos[a.To] < pos[v] && colors[a.To] != c {
				d += alpha * float64(a.Weight)
			}
		}
		return d
	}

	// forced returns the bound: over every uncolored vertex, the least
	// conflict weight any of the k colors has among its colored neighbours.
	tally := make([]int, n*max(k, 1))
	forced := func() int {
		clear(tally)
		for v, cv := range colors {
			if cv == Uncolored {
				continue
			}
			for _, a := range w.Conf[v] {
				if colors[a.To] == Uncolored {
					tally[a.To*k+cv] += a.Weight
				}
			}
		}
		lb := 0
		for u, cu := range colors {
			if cu == Uncolored && k > 0 {
				lb += slices.Min(tally[u*k : u*k+k])
			}
		}
		return lb
	}

	var rec func(idx int, cost float64, used int)
	rec = func(idx int, cost float64, used int) {
		nodes++
		if nodes&1023 == 0 {
			select {
			case <-done:
				stopped = true
			default:
			}
		}
		if stopped || nodes > nodeLimit {
			exhausted = false
			return
		}
		if cost >= bestCost-1e-12 {
			return
		}
		if bounded && cost+float64(forced()) >= bestCost-1e-12 {
			return
		}
		if idx == n {
			c, s := w.CountWeighted(colors)
			cc := float64(c) + alpha*float64(s)
			if cc < bestCost-1e-12 {
				bestCost = cc
				bestC, bestS = c, s
				copy(best, colors)
			}
			return
		}
		v := order[idx]
		limit := used + 1
		if limit > k {
			limit = k
		}
		for c := 0; c < limit; c++ {
			colors[v] = c
			nu := used
			if c == used {
				nu++
			}
			rec(idx+1, cost+deltaCost(v, c), nu)
			colors[v] = Uncolored
			if stopped || nodes > nodeLimit {
				return
			}
		}
	}
	select {
	case <-done:
		exhausted = false // already cancelled: return the greedy incumbent
	default:
		rec(0, 0, 0)
	}

	return BacktrackResult{
		Colors:    best,
		Conflicts: bestC,
		Stitches:  bestS,
		Proven:    exhausted,
		Nodes:     nodes,
	}
}
