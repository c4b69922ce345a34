package division

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"mpl/internal/coloring"
	"mpl/internal/ghtree"
	"mpl/internal/graph"
	"mpl/internal/pipeline"
)

// decomposeReference is the per-component divide that DecomposeEnv
// replaced: every connected component is copied out with Subgraph, peeled
// on its own copy, its core copied again and split into components, and
// its own stack popped before the worker takes the next component. Each
// core component then goes through solveCoreReference, which copies every
// GH piece and its components twice. It is the oracle for
// TestDivisionMatchesReference and FuzzDivisionMatchesReference: the
// one-pass divide must write the same colors, count the same Stats and
// hand the solver the same pieces.
func decomposeReference(ctx context.Context, g *graph.Graph, opts Options, env Env, solve Solver) ([]int, Stats) {
	n := g.N()
	colors := make([]int, n)
	for i := range colors {
		colors[i] = coloring.Uncolored
	}
	var st Stats
	comps := g.Components()
	st.Components = len(comps)
	jobs := make(chan []int, len(comps))
	for _, comp := range comps {
		jobs <- comp
	}
	close(jobs)
	worker := func(ws *Stats) {
		sc := env.Scratch.Get()
		defer env.Scratch.Put(sc)
		idx := sc.Int32s(n)
		defer sc.PutInt32s(idx)
		for comp := range jobs {
			sub := subgraphTimed(g, comp, idx, ws)
			subColors := decomposeComponentReference(ctx, sub, opts, solve, ws, sc, idx)
			for i, v := range comp {
				colors[v] = subColors[i]
			}
		}
	}
	workers := max(opts.Workers, 1)
	workerStats := make([]Stats, workers)
	var wg sync.WaitGroup
	for w := range workerStats {
		wg.Add(1)
		go func(ws *Stats) {
			defer wg.Done()
			worker(ws)
		}(&workerStats[w])
	}
	wg.Wait()
	for _, ws := range workerStats {
		st.Add(ws)
	}
	return colors, st
}

// decomposeComponentReference handles one connected component: peel, solve
// the core (via biconnected + GH division), then pop the peel stack.
func decomposeComponentReference(ctx context.Context, g *graph.Graph, opts Options, solve Solver, st *Stats, sc *pipeline.Scratch, idx []int32) []int {
	n := g.N()
	colors := make([]int, n)
	for i := range colors {
		colors[i] = coloring.Uncolored
	}
	var stack, core []int
	if opts.DisablePeeling {
		core = make([]int, n)
		for i := range core {
			core[i] = i
		}
	} else {
		stack, core = g.PeelOrder(opts.K, maxStitchDegree)
		st.Peeled += len(stack)
	}
	if len(core) > 0 {
		coreSub := subgraphTimed(g, core, idx, st)
		for _, cc := range coreSub.Components() {
			ccColors := solveCoreReference(ctx, subgraphTimed(coreSub, cc, idx, st), opts, solve, st, sc, idx)
			for i, v := range cc {
				colors[core[v]] = ccColors[i]
			}
		}
	}
	for i := len(stack) - 1; i >= 0; i-- {
		v := stack[i]
		colors[v] = cheapestColor(g, colors, v, opts.K, opts.Alpha)
	}
	return colors
}

// solveCoreReference is solveCore as it was before GH pieces were split on
// the block's rows: the biconnected split of one connected core component.
func solveCoreReference(ctx context.Context, g *graph.Graph, opts Options, solve Solver, st *Stats, sc *pipeline.Scratch, idx []int32) []int {
	if opts.DisableBiconnected {
		st.Blocks++
		return solveBlockReference(ctx, g, opts, solve, st, sc, idx)
	}
	tPart := time.Now()
	blocks, _ := g.BiconnectedComponents()
	st.AddStage(pipeline.StagePartition, time.Since(tPart))
	if len(blocks) == 1 {
		st.Blocks++
		return solveBlockReference(ctx, g, opts, solve, st, sc, idx)
	}

	n := g.N()
	colors := sc.Ints(n)
	for i := range colors {
		colors[i] = coloring.Uncolored
	}

	// Process blocks in an order where each new block shares at most one
	// already-colored vertex (BFS over the block-cut structure); rotate the
	// block's fresh coloring so that vertex matches.
	vertexBlocks := make(map[int][]int) // vertex -> block indices
	for bi, b := range blocks {
		for _, v := range b {
			vertexBlocks[v] = append(vertexBlocks[v], bi)
		}
	}
	done := make([]bool, len(blocks))
	queue := []int{0}
	done[0] = true
	for len(queue) > 0 {
		bi := queue[0]
		queue = queue[1:]
		st.Blocks++
		block := blocks[bi]
		bsub, borig := subgraphTimed(g, block, idx, st), block
		bcolors := solveBlockReference(ctx, bsub, opts, solve, st, sc, idx)

		// Find the anchor: a vertex already colored by an earlier block.
		tStitch := time.Now()
		rot := 0
		for i, v := range borig {
			if colors[v] != coloring.Uncolored {
				rot = (colors[v] - bcolors[i]%opts.K + 2*opts.K) % opts.K
				break
			}
		}
		for i, v := range borig {
			if colors[v] == coloring.Uncolored {
				colors[v] = (bcolors[i] + rot) % opts.K
			}
		}
		sc.PutInts(bcolors)
		st.AddStage(pipeline.StageStitch, time.Since(tStitch))
		for _, v := range block {
			for _, nb := range vertexBlocks[v] {
				if !done[nb] {
					done[nb] = true
					queue = append(queue, nb)
				}
			}
		}
	}
	return colors
}

// solveBlockReference is solveBlock as it was: each GH piece is copied out
// of the block, split into components on the copy, and each component
// copied out of the copy again.
func solveBlockReference(ctx context.Context, g *graph.Graph, opts Options, solve Solver, st *Stats, sc *pipeline.Scratch, idx []int32) []int {
	n := g.N()
	if opts.DisableGHTree || n > ghTreeMaxN || n < 2 {
		return callSolver(ctx, g, opts, solve, st, sc)
	}
	tPart := time.Now()
	tr := ghtree.BuildFromConflictGraphScratch(ctx, g, sc)
	if tr == nil {
		// Cancelled during (or before) the n−1 max-flows: skip GH division
		// and let callSolver route the whole block to the linear fallback.
		st.AddStage(pipeline.StagePartition, time.Since(tPart))
		return callSolver(ctx, g, opts, solve, st, sc)
	}
	comps := tr.ComponentsBelowWeight(int64(opts.K))
	st.AddStage(pipeline.StagePartition, time.Since(tPart))
	if len(comps) == 1 {
		return callSolver(ctx, g, opts, solve, st, sc)
	}
	st.GHComponents += len(comps)

	colors := sc.Ints(n)
	for i := range colors {
		colors[i] = coloring.Uncolored
	}
	for _, comp := range comps {
		csub, corig := subgraphTimed(g, comp, idx, st), comp
		// The piece may itself be disconnected once cut edges are ignored;
		// components inside it are solved independently (their relative
		// rotation is later fixed edge by edge).
		tSplit := time.Now()
		ccs := csub.Components()
		st.AddStage(pipeline.StagePartition, time.Since(tSplit))
		for _, cc := range ccs {
			ccSub, ccOrig := subgraphTimed(csub, cc, idx, st), cc
			ccColors := callSolver(ctx, ccSub, opts, solve, st, sc)
			for i, v := range ccOrig {
				colors[corig[v]] = ccColors[i]
			}
			sc.PutInts(ccColors)
		}
	}

	// Color rotation (Lemma 1): for every removed tree edge, deepest
	// first, rotate the subtree side by the value that minimizes the cost
	// of the crossing edges. The cut-tree property bounds the crossing
	// conflict edges by K−1, so a conflict-free rotation always exists.
	tStitch := time.Now()
	ces := g.ConflictEdges()
	ses := g.StitchEdges()
	for _, cut := range tr.CutEdgesBelowWeight(int64(opts.K)) {
		mask := tr.SubtreeMask(cut.Child)
		bestRot, bestCost := 0, 1e18
		for r := 0; r < opts.K; r++ {
			cost := 0.0
			for _, e := range ces {
				if mask[e.U] != mask[e.V] {
					cu, cv := colors[e.U], colors[e.V]
					if mask[e.U] {
						cu = (cu + r) % opts.K
					} else {
						cv = (cv + r) % opts.K
					}
					if cu == cv {
						cost++
					}
				}
			}
			for _, e := range ses {
				if mask[e.U] != mask[e.V] {
					cu, cv := colors[e.U], colors[e.V]
					if mask[e.U] {
						cu = (cu + r) % opts.K
					} else {
						cv = (cv + r) % opts.K
					}
					if cu != cv {
						cost += opts.Alpha
					}
				}
			}
			if cost < bestCost-1e-12 {
				bestCost = cost
				bestRot = r
			}
		}
		if bestRot != 0 {
			for v := 0; v < n; v++ {
				if mask[v] {
					colors[v] = (colors[v] + bestRot) % opts.K
				}
			}
		}
	}
	st.AddStage(pipeline.StageStitch, time.Since(tStitch))
	return colors
}

// refGraph draws a graph of several components whose vertex ids are
// shuffled, so components interleave in id space and the global peel queue
// mixes them. A component is a (k+1)-clique, which survives the peel; a
// chain, which does not; two cliques sharing a vertex (a biconnected
// split); two cliques joined by fewer than k conflict edges (a GH cut); or
// two hubs joined through k middle vertices, each middle vertex also in a
// (k+1)-clique of its own. The hubs are k-edge-connected but not adjacent,
// so their GH piece is disconnected. Cliques may carry a chain tail. Stitch and color-friendly edges land on
// unjoined pairs inside a component.
func refGraph(rng *rand.Rand, k int) *graph.Graph {
	var comps [][]int
	var edges [][2]int // conflict edges over pre-shuffle ids
	next := 0
	fresh := func(m int) []int {
		vs := make([]int, m)
		for i := range vs {
			vs[i] = next
			next++
		}
		return vs
	}
	clique := func(vs []int) {
		for i := range vs {
			for j := i + 1; j < len(vs); j++ {
				edges = append(edges, [2]int{vs[i], vs[j]})
			}
		}
	}
	chain := func(vs []int) {
		for i := 1; i < len(vs); i++ {
			edges = append(edges, [2]int{vs[i-1], vs[i]})
		}
	}
	for c := 1 + rng.Intn(7); c > 0; c-- {
		var comp []int
		switch rng.Intn(5) {
		case 0:
			comp = fresh(k + 1)
			clique(comp)
		case 1:
			comp = fresh(2 + rng.Intn(6))
			chain(comp)
		case 2:
			a := fresh(k + 1)
			b := append(fresh(k), a[rng.Intn(len(a))])
			clique(a)
			clique(b)
			comp = append(a, b[:k]...)
		case 3:
			a, b := fresh(k+1), fresh(k+1)
			clique(a)
			clique(b)
			for j := 1 + rng.Intn(k-1); j > 0; j-- {
				edges = append(edges, [2]int{a[j], b[rng.Intn(len(b))]})
			}
			comp = append(a, b...)
		default:
			hubs, mid := fresh(2), fresh(k)
			comp = append(hubs, mid...)
			for _, m := range mid {
				edges = append(edges, [2]int{hubs[0], m}, [2]int{hubs[1], m})
				q := append(fresh(k), m)
				clique(q)
				comp = append(comp, q[:k]...)
			}
		}
		if rng.Intn(3) == 0 {
			tail := fresh(1 + rng.Intn(4))
			chain(append([]int{comp[rng.Intn(len(comp))]}, tail...))
			comp = append(comp, tail...)
		}
		comps = append(comps, comp)
	}
	perm := rng.Perm(next)
	b := graph.NewBuilder(next)
	joined := map[[2]int]bool{}
	join := func(u, v int) bool {
		key := [2]int{min(u, v), max(u, v)}
		if u == v || joined[key] {
			return false
		}
		joined[key] = true
		return true
	}
	for _, e := range edges {
		if u, v := perm[e[0]], perm[e[1]]; join(u, v) {
			b.AddConflict(u, v)
		}
	}
	for _, comp := range comps {
		for j := rng.Intn(3); j > 0; j-- {
			if u, v := perm[comp[rng.Intn(len(comp))]], perm[comp[rng.Intn(len(comp))]]; join(u, v) {
				b.AddStitch(u, v)
			}
		}
		for j := rng.Intn(3); j > 0; j-- {
			if u, v := perm[comp[rng.Intn(len(comp))]], perm[comp[rng.Intn(len(comp))]]; join(u, v) {
				b.AddFriend(u, v)
			}
		}
	}
	return b.Build(nil)
}

// pieceKey renders a solver piece as its size and its three CSR row sets
// in vertex order, so equal keys mean the same piece with the same labels.
func pieceKey(g *graph.Graph) string {
	s := fmt.Sprint(g.N())
	for v := 0; v < g.N(); v++ {
		s += fmt.Sprint(g.ConflictNeighbors(v), g.StitchNeighbors(v), g.FriendNeighbors(v))
	}
	return s
}

// recordingLinear is a Linear-engine solver that records every piece it
// is handed; safe for concurrent calls.
func recordingLinear(k int, alpha float64) (Solver, func() []string) {
	var mu sync.Mutex
	var keys []string
	solve := func(g *graph.Graph, _ *pipeline.Scratch) []int {
		key := pieceKey(g)
		mu.Lock()
		keys = append(keys, key)
		mu.Unlock()
		return coloring.Linear(g, coloring.LinearOptions{K: k, Alpha: alpha})
	}
	return solve, func() []string {
		mu.Lock()
		defer mu.Unlock()
		sorted := slices.Clone(keys)
		slices.Sort(sorted)
		return sorted
	}
}

// referenceAblations are the option sets the reference suite runs.
var referenceAblations = []Options{
	{},
	{DisablePeeling: true},
	{DisableBiconnected: true},
	{DisableGHTree: true},
	{DisablePeeling: true, DisableBiconnected: true, DisableGHTree: true},
}

// sameCounters reports whether two Stats agree on every counter; stage
// timings and Balance depend on the run and on scheduling, and the
// one-pass divide times fewer, larger regions than the reference.
func sameCounters(a, b Stats) bool {
	a.Stages, b.Stages = nil, nil
	a.Balance, b.Balance = Balance{}, Balance{}
	return reflect.DeepEqual(a, b)
}

// checkMatchesReference runs DecomposeEnv and decomposeReference on g
// under every ablation at workers 1, 2 and 8 and fails on any difference
// in colors, Stats counters (stage timings and Balance aside) or the
// multiset of solver pieces.
func checkMatchesReference(t *testing.T, ctx context.Context, g *graph.Graph, k int) {
	t.Helper()
	const alpha = 0.1
	for _, ablation := range referenceAblations {
		for _, workers := range []int{1, 2, 8} {
			opts := ablation
			opts.K, opts.Alpha, opts.Workers = k, alpha, workers
			env := Env{Scratch: pipeline.NewScratchPool()}
			refSolve, refPieces := recordingLinear(k, alpha)
			wantColors, wantStats := decomposeReference(ctx, g, opts, env, refSolve)
			solve, pieces := recordingLinear(k, alpha)
			gotColors, gotStats := DecomposeEnv(ctx, g, opts, env, solve)
			if !reflect.DeepEqual(gotColors, wantColors) {
				t.Fatalf("%+v: colors %v, reference %v", opts, gotColors, wantColors)
			}
			if !sameCounters(gotStats, wantStats) {
				t.Fatalf("%+v: stats %+v, reference %+v", opts, gotStats, wantStats)
			}
			if got, want := pieces(), refPieces(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v: solver pieces %q, reference %q", opts, got, want)
			}
		}
	}
}

func TestDivisionMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 3 + rng.Intn(3)
		checkMatchesReference(t, context.Background(), refGraph(rng, k), k)
	}
}

// TestDivisionMatchesReferenceUnderCancel checks the fallback path: with
// the context already cancelled every piece that reaches dispatch is
// colored by the linear fallback, on both sides alike.
func TestDivisionMatchesReferenceUnderCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		checkMatchesReference(t, ctx, refGraph(rng, 4), 4)
	}
}

func FuzzDivisionMatchesReference(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, kSel uint8) {
		k := 3 + int(kSel%3)
		checkMatchesReference(t, context.Background(), refGraph(rand.New(rand.NewSource(seed)), k), k)
	})
}
