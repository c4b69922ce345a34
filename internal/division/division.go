// Package division implements the graph-division pipeline of Section 4 of
// the DAC'14 paper. Color assignment is exponential in the worst case, so
// the decomposition graph is shrunk before any solver runs:
//
//  1. independent component computation — each connected component is
//     processed separately;
//  2. iterative removal of vertices with conflict degree < K (and stitch
//     degree < 2), which can always be re-colored legally afterwards;
//     the core that survives is split again into connected pieces;
//  3. 2-vertex-connected (biconnected) component computation — blocks meet
//     only at articulation vertices, and a color rotation aligns each block
//     to the already-colored cut vertex;
//  4. GH-tree based (K−1)-cut removal (Section 4.1, Algorithm 3) — tree
//     edges with weight < K split the block into pieces joined by fewer
//     than K conflict edges; after independent coloring, each piece is
//     rotated so that no cut edge becomes a conflict (Lemma 1 guarantees a
//     safe rotation exists; Theorem 2 generalizes to any K).
//
// The pipeline is solver-agnostic: any function that colors one connected
// component can be plugged in, which is how the ILP / SDP / linear engines
// of the paper's Tables 1–2 share identical division treatment.
//
// Steps 1 and 2 run once over the whole graph rather than per component:
// one peel over the caller's graph, the core's connected pieces found on
// its rows, and one pop of the whole stack at the end. This is the paper's
// per-component order exactly (see DecomposeEnv), without a copy of every
// component; the components are only counted. Only a core piece is copied
// out (Subgraph) and handed to a worker for steps 3 and 4, which copies
// each block once and each connected part of a GH piece once; the GH piece
// itself is split on the block's rows.
//
// In stage terms (internal/pipeline), this package implements the middle
// of the flow: step 2 is the Simplify stage, steps 1, 3 and 4 are the
// Partition stage, each solver call is one Dispatch, and every reassembly
// action — block rotations, GH cut rotations, peel-stack pops — is the
// Stitch stage. Per-stage wall time is tallied into Stats.Stages (summed
// across workers like every other Stats field), and each worker threads a
// pipeline.Scratch arena into its solver calls so engines reuse hot-path
// buffers instead of re-allocating them per piece.
package division

import (
	"cmp"
	"context"
	"slices"
	"sync"
	"time"

	"mpl/internal/coloring"
	"mpl/internal/ghtree"
	"mpl/internal/graph"
	"mpl/internal/pipeline"
)

// Solver colors one connected decomposition (sub)graph with K colors,
// returning one color in [0, K) per vertex. The scratch arena is the
// calling worker's (nil-safe, single-goroutine); engines carve reusable
// workspace from it and must not retain carved buffers past the call's
// consumption — see pipeline.Scratch.
type Solver func(g *graph.Graph, sc *pipeline.Scratch) []int

// Env is the cross-cutting pipeline machinery of one decomposition run:
// the scratch-buffer pool workers lease their arenas from and the shared
// parallelism budget the worker pool hands its idle slots back to (so
// nested engine fan-outs, like the SDP restart runners, can claim them).
// The zero value disables both — every buffer request allocates and
// nested parallelism never engages.
type Env = pipeline.Env

// Options controls which division techniques run. The zero value enables
// everything with the paper's parameters except K, which must be set.
type Options struct {
	// K is the number of masks.
	K int
	// Alpha is the stitch weight used when scoring reassembly rotations
	// and stack pops (paper: 0.1).
	Alpha float64
	// DisablePeeling skips low-degree vertex removal (ablation).
	DisablePeeling bool
	// DisableBiconnected skips the biconnected split (ablation).
	DisableBiconnected bool
	// DisableGHTree skips GH-tree (K−1)-cut division (ablation).
	DisableGHTree bool
	// Workers sets the number of goroutines coloring independent core
	// pieces concurrently; 0 or 1 means serial. Results are deterministic
	// regardless of worker count because pieces are disjoint and each is
	// solved from the same inputs — but the solver must be safe for
	// concurrent calls.
	Workers int
}

// maxStitchDegree is the paper's dstit bound for peeling: a vertex with
// fewer than K conflict neighbours and at most this many stitch
// neighbours is peeled.
const maxStitchDegree = 2

// ghTreeMaxN caps the block size for which a GH tree is built (n−1
// max-flows get expensive on huge blocks). It is a var only so a test can
// lower it.
var ghTreeMaxN = 3000

// Stats reports how much structure the pipeline exposed.
type Stats struct {
	Components   int // independent components
	Peeled       int // vertices removed by low-degree peeling
	Blocks       int // biconnected blocks solved
	GHComponents int // pieces created by (K−1)-cut removal
	SolverCalls  int // invocations of the underlying solver
	Fallbacks    int // pieces colored by the linear fallback after cancellation

	// Engines is the per-engine dispatch histogram: how many pieces each
	// named engine colored. The pipeline itself records only "fallback"
	// (the cancellation path of callSolver); the portfolio dispatcher in
	// internal/core fills in the engine names it routed pieces to, so a
	// fixed-engine run shows one bucket, an auto run shows the mix.
	// A piece served from core's shape tier counts under the engine whose
	// stored answer it carries, so the histogram does not depend on what
	// the tier held.
	// Lazily allocated — a Stats with no dispatches has a nil map.
	Engines map[string]int

	// Stages is the per-stage telemetry of the run, keyed by the
	// pipeline.Stage* names. This package tallies the stages it owns
	// (simplify, partition, dispatch, stitch; wall summed across workers,
	// like SolverTime); internal/core adds build and merge around it with
	// AddStage. Lazily allocated, merged across workers like Engines.
	Stages map[string]pipeline.StageStats

	// Shapes reports the shape-tier counters of the run (internal/canon;
	// every piece of at most canon.MaxVertices vertices that reaches the
	// engine dispatcher, DESIGN.md §11). Like Engines, the counters are
	// produced by the dispatcher in internal/core — this package never
	// touches them — and arrive after the division finishes; worker-level
	// Stats always carry zeros here.
	Shapes ShapeStats

	// Balance is the dispatch-imbalance gauge of the run: the busy-time
	// extremes of the worker pool. A max/min ratio near 1 means LPT
	// scheduling kept the pool saturated; a large ratio means one
	// straggler core piece dominated the wall clock (which is exactly when
	// the shared parallelism budget lets that piece's SDP restarts fan out
	// over the idle workers). The peel and the pop run outside the pool
	// and are not counted.
	Balance Balance
}

// Balance reports how evenly the parallel Dispatch fan-out loaded the
// worker pool. Unlike every other Stats field it merges by extremes, not
// sums: each worker contributes its own total busy time, and the
// aggregate keeps the max and the min observed.
type Balance struct {
	// Workers counts pool workers that processed at least one core piece
	// (a serial run reports 1, or 0 when the whole graph peels away).
	// Workers that never received a job carry no busy-time signal and are
	// excluded.
	Workers int
	// MaxBusy and MinBusy are the busiest and least-busy workers' total
	// in-job wall time. Across runs (the service aggregate) they are the
	// lifetime extremes.
	MaxBusy time.Duration
	MinBusy time.Duration
}

// Merge folds another pool's (or worker's) balance into b, keeping the
// busy-time extremes: worker counts sum, MaxBusy/MinBusy stay the extremes
// observed. The zero value is the identity. The service aggregate uses the
// same rule, so /v1/stats reports lifetime extremes.
func (b *Balance) Merge(o Balance) {
	if o.Workers == 0 {
		return
	}
	if b.Workers == 0 {
		*b = o
		return
	}
	b.Workers += o.Workers
	if o.MaxBusy > b.MaxBusy {
		b.MaxBusy = o.MaxBusy
	}
	if o.MinBusy < b.MinBusy {
		b.MinBusy = o.MinBusy
	}
}

// ShapeStats counts shape-tier traffic for one run: Hits is solver pieces
// answered from the tier, Misses is pieces that went to an engine (tier
// miss, bypass, or a disabled tier), Distinct is the number of distinct
// labeled encodings (tier identities) the run touched.
type ShapeStats struct {
	Hits     int
	Misses   int
	Distinct int
}

// AddEngine accumulates n dispatches of the named engine into the
// histogram, allocating it on first use.
func (s *Stats) AddEngine(name string, n int) {
	if s.Engines == nil {
		s.Engines = make(map[string]int)
	}
	s.Engines[name] += n
}

// AddStage accumulates one timed region into the named stage bucket.
func (s *Stats) AddStage(name string, d time.Duration) {
	if s.Stages == nil {
		s.Stages = make(map[string]pipeline.StageStats, 8)
	}
	cur := s.Stages[name]
	cur.Wall += d
	cur.Calls++
	s.Stages[name] = cur
}

// Add folds o into s. It is the one merge rule for Stats: division
// workers fold into their run, and the service aggregate folds every
// executed run (and copies itself by folding into a zero value).
// Components is global (the component count, known before any worker runs)
// and is deliberately excluded; Balance merges by extremes. Every other
// field MUST be summed here — TestStatsMergeCoversAllFields enforces this
// by reflection, so a field added to Stats without a matching line below
// fails the suite instead of silently under-reporting. Maps stay nil when
// o's are empty.
func (s *Stats) Add(o Stats) {
	s.Peeled += o.Peeled
	s.Blocks += o.Blocks
	s.GHComponents += o.GHComponents
	s.SolverCalls += o.SolverCalls
	s.Fallbacks += o.Fallbacks
	for name, n := range o.Engines {
		s.AddEngine(name, n)
	}
	if s.Stages == nil && len(o.Stages) > 0 {
		s.Stages = make(map[string]pipeline.StageStats, len(o.Stages))
	}
	for name, st := range o.Stages {
		cur := s.Stages[name]
		cur.Wall += st.Wall
		cur.Calls += st.Calls
		s.Stages[name] = cur
	}
	s.Shapes.Hits += o.Shapes.Hits
	s.Shapes.Misses += o.Shapes.Misses
	s.Shapes.Distinct += o.Shapes.Distinct
	s.Balance.Merge(o.Balance)
}

// Decompose divides the graph, colors every piece with solve, and
// reassembles a full coloring.
func Decompose(g *graph.Graph, opts Options, solve Solver) ([]int, Stats) {
	return DecomposeContext(context.Background(), g, opts, solve)
}

// DecomposeContext is Decompose with cooperative cancellation. Every vertex
// still receives a valid color: pieces whose solve has not started when ctx
// is cancelled are colored by the linear-time heuristic (Algorithm 2)
// instead of the configured engine, and Stats.Fallbacks counts them. In
// parallel mode the worker pool drains its queued pieces the same way,
// so a cancelled call returns as soon as in-flight solver calls notice the
// cancellation rather than after the full queue is solved at full quality.
func DecomposeContext(ctx context.Context, g *graph.Graph, opts Options, solve Solver) ([]int, Stats) {
	return DecomposeEnv(ctx, g, opts, Env{}, solve)
}

// DecomposeEnv is DecomposeContext with an explicit pipeline environment:
// a scratch pool for per-worker engine arenas and the run's shared
// parallelism budget. Stats.Stages is tallied either way; the env only
// decides whether buffers are pooled and whether idle worker slots are
// handed to nested engine fan-outs.
//
// The peel and the pop run once over g itself, and only the core is cut
// into pieces. No edge crosses a component and PeelOrder is a FIFO seeded
// in ascending id, so restricted to one component the global removal
// stack, core and pop order are exactly those of a per-component run
// (DESIGN.md §4): the output is the paper's component-by-component order.
func DecomposeEnv(ctx context.Context, g *graph.Graph, opts Options, env Env, solve Solver) ([]int, Stats) {
	if opts.K < 2 {
		panic("division: K must be >= 2")
	}
	n := g.N()
	colors := make([]int, n)
	for i := range colors {
		colors[i] = coloring.Uncolored
	}
	var st Stats
	tPart := time.Now()
	// Without peeling the pieces are the components themselves. With it,
	// the components are only counted: the whole graph is peeled and its
	// core split into connected pieces over g's rows (peeling can
	// disconnect a component's core).
	var stack []int
	var pieces [][]int
	if opts.DisablePeeling {
		pieces = g.Components()
		st.Components = len(pieces)
	} else {
		sc := env.Scratch.Get()
		mark := sc.Int32s(n)
		st.Components = g.ComponentCount(mark)
		st.AddStage(pipeline.StagePartition, time.Since(tPart))
		tSimp := time.Now()
		var core []int
		stack, core = g.PeelOrder(opts.K, maxStitchDegree)
		st.AddStage(pipeline.StageSimplify, time.Since(tSimp))
		st.Peeled = len(stack)
		tPart = time.Now()
		pieces = g.InducedComponents(core, mark)
		sc.PutInt32s(mark)
		env.Scratch.Put(sc)
	}

	// LPT (longest-processing-time-first) scheduling order for the parallel
	// pool: heaviest pieces first, sized by vertex count plus CSR degree
	// sum — a subgraph-free proxy for solve cost — with discovery order
	// breaking ties (stable sort), so a straggler piece starts as early as
	// possible instead of arriving last into an otherwise-drained pool.
	// Computed inside the same Partition region as the split so the
	// per-stage call structure stays identical at any worker count.
	if opts.Workers > 1 && len(pieces) > 1 {
		type job struct {
			piece  []int
			weight int
		}
		byWeight := make([]job, len(pieces))
		for i, p := range pieces {
			w := len(p)
			for _, v := range p {
				w += g.ConflictDegree(v) + g.StitchDegree(v)
			}
			byWeight[i] = job{p, w}
		}
		slices.SortStableFunc(byWeight, func(a, b job) int { return cmp.Compare(b.weight, a.weight) })
		for i, j := range byWeight {
			pieces[i] = j.piece
		}
	}
	st.AddStage(pipeline.StagePartition, time.Since(tPart))

	// Pieces enter the pre-filled, closed jobs channel in that order.
	// Scheduling order is observably identical to discovery order: each
	// piece is solved from the same inputs, the writes are vertex-disjoint,
	// and the per-worker stats merge the same way regardless of which
	// worker ran which job.
	jobs := make(chan []int, len(pieces))
	for _, p := range pieces {
		jobs <- p
	}
	close(jobs)

	// worker drains the jobs channel into ws on its own scratch arena,
	// copying each piece out of g once. Pieces are vertex-disjoint, so
	// concurrent workers write non-overlapping slices of colors.
	worker := func(ws *Stats) {
		sc := env.Scratch.Get()
		defer env.Scratch.Put(sc)
		idx := sc.Int32s(n)
		defer sc.PutInt32s(idx)
		var busy time.Duration
		jobsRun := 0
		for piece := range jobs {
			t0 := time.Now()
			sub := subgraphTimed(g, piece, idx, ws)
			subColors := solveCore(ctx, sub, opts, solve, ws, sc, idx)
			for i, v := range piece {
				colors[v] = subColors[i]
			}
			// Engine-returned slices are freshly allocated and consumed by
			// the copy above, so adopting them into the worker's freelist
			// is safe and lets the next piece reuse the memory.
			sc.PutInts(subColors)
			busy += time.Since(t0)
			jobsRun++
		}
		if jobsRun > 0 {
			ws.Balance = Balance{Workers: 1, MaxBusy: busy, MinBusy: busy}
		}
	}
	if opts.Workers <= 1 {
		var ws Stats
		worker(&ws)
		st.Add(ws)
	} else {
		// Spare worker slots — workers this run will never spawn because
		// there are fewer pieces than Options.Workers — go straight to the
		// shared budget, where a huge piece's SDP restart fan-out can claim
		// them.
		spawn := min(opts.Workers, len(pieces))
		for w := spawn; w < opts.Workers; w++ {
			env.Budget.Free()
		}
		workerStats := make([]Stats, spawn)
		var wg sync.WaitGroup
		for w := range workerStats {
			wg.Add(1)
			go func(ws *Stats) {
				defer wg.Done()
				// The jobs channel is pre-filled and closed, so once this
				// worker's receive fails it is permanently idle: its slot
				// returns to the shared budget for nested fan-outs of the
				// still-running workers.
				defer env.Budget.Free()
				worker(ws)
			}(&workerStats[w])
		}
		wg.Wait()
		for _, ws := range workerStats {
			st.Add(ws)
		}
	}

	// Pop the stack in reverse removal order; a conflict-free color always
	// exists (the peeling invariant), stitch cost breaks ties.
	if len(stack) > 0 {
		tStitch := time.Now()
		for i := len(stack) - 1; i >= 0; i-- {
			v := stack[i]
			colors[v] = cheapestColor(g, colors, v, opts.K, opts.Alpha)
		}
		st.AddStage(pipeline.StageStitch, time.Since(tStitch))
	}
	return colors, st
}

// subgraphTimed extracts an induced subgraph under the Partition stage
// clock (structural splitting is partition work wherever it happens). idx
// is the worker's all-zero Subgraph index, leased once per run at the
// size of the run's graph, which bounds every piece nested inside it.
func subgraphTimed(g *graph.Graph, vertices []int, idx []int32, st *Stats) *graph.Graph {
	t0 := time.Now()
	sub := g.Subgraph(vertices, idx)
	st.AddStage(pipeline.StagePartition, time.Since(t0))
	return sub
}

// callSolver invokes the engine for one piece unless ctx is already
// cancelled, in which case the linear-time heuristic colors it instead
// (the piece is connected, so quality degrades but validity never does).
// Either way the piece is one Dispatch-stage region.
func callSolver(ctx context.Context, g *graph.Graph, opts Options, solve Solver, st *Stats, sc *pipeline.Scratch) []int {
	t0 := time.Now()
	defer func() { st.AddStage(pipeline.StageDispatch, time.Since(t0)) }()
	select {
	case <-ctx.Done():
		st.Fallbacks++
		st.AddEngine("fallback", 1)
		return coloring.Linear(g, coloring.LinearOptions{K: opts.K, Alpha: opts.Alpha})
	default:
		st.SolverCalls++
		return solve(g, sc)
	}
}

// solveCore applies the biconnected split to one connected core component.
func solveCore(ctx context.Context, g *graph.Graph, opts Options, solve Solver, st *Stats, sc *pipeline.Scratch, idx []int32) []int {
	if opts.DisableBiconnected {
		st.Blocks++
		return solveBlock(ctx, g, opts, solve, st, sc, idx)
	}
	tPart := time.Now()
	blocks, _ := g.BiconnectedComponents()
	st.AddStage(pipeline.StagePartition, time.Since(tPart))
	if len(blocks) == 1 {
		st.Blocks++
		return solveBlock(ctx, g, opts, solve, st, sc, idx)
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
		bsub := subgraphTimed(g, block, idx, st)
		bcolors := solveBlock(ctx, bsub, opts, solve, st, sc, idx)

		// Find the anchor: a vertex already colored by an earlier block.
		tStitch := time.Now()
		rot := 0
		for i, v := range block {
			if colors[v] != coloring.Uncolored {
				rot = (colors[v] - bcolors[i]%opts.K + 2*opts.K) % opts.K
				break
			}
		}
		for i, v := range block {
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

// solveBlock applies GH-tree (K−1)-cut division to one biconnected block
// (Algorithm 3) and reassembles with color rotations.
func solveBlock(ctx context.Context, g *graph.Graph, opts Options, solve Solver, st *Stats, sc *pipeline.Scratch, idx []int32) []int {
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
		// The piece may itself be disconnected once cut edges are ignored;
		// components inside it are found on the block's rows and solved
		// independently (their relative rotation is later fixed edge by
		// edge). Each is copied out of the block once.
		tSplit := time.Now()
		ccs := g.InducedComponents(comp, idx)
		st.AddStage(pipeline.StagePartition, time.Since(tSplit))
		for _, cc := range ccs {
			ccColors := callSolver(ctx, subgraphTimed(g, cc, idx, st), opts, solve, st, sc)
			for i, v := range cc {
				colors[v] = ccColors[i]
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

// cheapestColor assigns v the color minimizing conflicts (then α-weighted
// stitches) against currently colored neighbors.
func cheapestColor(g *graph.Graph, colors []int, v, k int, alpha float64) int {
	conf, stit := g.ConflictNeighbors(v), g.StitchNeighbors(v)
	bestCol, bestCost := 0, 1e18
	for c := 0; c < k; c++ {
		cost := 0.0
		for _, w := range conf {
			if colors[w] == c {
				cost++
			}
		}
		for _, w := range stit {
			if colors[w] != coloring.Uncolored && colors[w] != c {
				cost += alpha
			}
		}
		if cost < bestCost-1e-12 {
			bestCost = cost
			bestCol = c
		}
	}
	return bestCol
}
