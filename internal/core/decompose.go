package core

import (
	"context"
	"fmt"
	"time"

	"mpl/internal/balance"
	"mpl/internal/coloring"
	"mpl/internal/division"
	"mpl/internal/flight"
	"mpl/internal/geom"
	"mpl/internal/graph"
	"mpl/internal/layout"
	"mpl/internal/pipeline"
	"mpl/internal/portfolio"
	"mpl/internal/sdp"
	"mpl/internal/spatial"
)

// Algorithm selects the color-assignment engine of Section 3. It is the
// portfolio's engine enum, so its String is the paper's column name.
type Algorithm = portfolio.Class

// The four engines compared in Tables 1 and 2 of the paper.
const (
	// AlgILP is the exact integer-linear-programming baseline.
	AlgILP = portfolio.ILP
	// AlgSDPBacktrack is SDP relaxation + merged-graph backtracking (Alg. 1).
	AlgSDPBacktrack = portfolio.SDPBacktrack
	// AlgSDPGreedy is SDP relaxation + greedy mapping.
	AlgSDPGreedy = portfolio.SDPGreedy
	// AlgLinear is the linear-time color assignment (Alg. 2).
	AlgLinear = portfolio.Linear
)

// Engine values: the per-component engine policy of Options.Engine. The
// empty string keeps the classic behavior — Options.Algorithm applied
// uniformly to every component.
const (
	// EngineFixed applies Options.Algorithm to every component.
	EngineFixed = ""
	// EngineAuto selects an engine per component from its structure
	// (internal/portfolio's constant thresholds over size, conflict
	// edges and odd cycles), and keeps Linear's coloring of a node-capped
	// SDP+Backtrack piece when it costs strictly less.
	EngineAuto = "auto"
)

// ParseEngine validates an engine policy name ("" or "auto").
func ParseEngine(s string) (string, error) {
	switch s {
	case EngineFixed, EngineAuto:
		return s, nil
	}
	return "", fmt.Errorf("core: unknown engine %q (want \"auto\" or empty for fixed)", s)
}

// checkEngine rejects an unknown engine policy, or a fixed-engine
// Algorithm outside the four engines, with an error instead of a panic
// deep in the dispatch stage.
func checkEngine(o Options) error {
	if _, err := ParseEngine(o.Engine); err != nil {
		return err
	}
	if o.Engine == EngineFixed && (o.Algorithm < 0 || o.Algorithm >= portfolio.NumClasses) {
		return fmt.Errorf("core: unknown algorithm %v", o.Algorithm)
	}
	return nil
}

// ParseAlgorithm maps a command-line name to an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "ilp":
		return AlgILP, nil
	case "sdp", "sdp-backtrack", "backtrack":
		return AlgSDPBacktrack, nil
	case "sdp-greedy", "greedy":
		return AlgSDPGreedy, nil
	case "linear":
		return AlgLinear, nil
	}
	return 0, fmt.Errorf("core: unknown algorithm %q (want ilp, sdp-backtrack, sdp-greedy or linear)", s)
}

// Options configures a decomposition run. The zero value plus K is usable;
// defaults follow the paper (α = 0.1, t_th = 0.9, all division techniques).
// The parameters the paper fixes — the backtracking node cap, the SDP
// restart and iteration counts, the stitch bounds and the GH-tree size
// cap — are constants of the packages that use them, not options.
type Options struct {
	// K is the number of masks; 0 means 4 (quadruple patterning).
	K int
	// Algorithm picks the color-assignment engine applied to every
	// component when Engine is empty (the fixed policy).
	Algorithm Algorithm
	// Engine selects the per-component engine policy: EngineFixed ("")
	// or EngineAuto. Auto ignores Algorithm and picks engines per
	// component (internal/portfolio).
	Engine string
	// Alpha is the stitch weight; 0 means 0.1.
	Alpha float64
	// Threshold is Algorithm 1's merge threshold t_th; 0 means 0.9.
	Threshold float64
	// Seed drives the SDP solver's deterministic restarts.
	Seed int64
	// ILPTimeLimit bounds the total ILP solve time across components; the
	// zero value means 60 s (the paper used 3600 s on full-chip cases).
	ILPTimeLimit time.Duration
	// Memoize is a deprecated no-op, kept so existing callers compile:
	// every solve now consults the shape tier (DESIGN.md §11),
	// and Normalize clears the field.
	Memoize bool
	// Build controls graph construction.
	Build BuildOptions
	// Division toggles the Section 4 techniques (ablations).
	Division division.Options
}

// backtrackNodeLimit bounds each of Algorithm 1's merged-graph searches.
// It is a var only so a test can lower it to force a capped search; the
// shape tier's key carries it (shapeOptionsSig).
var backtrackNodeLimit int64 = coloring.BacktrackNodeLimit

// Normalize returns o with every defaulted field resolved to the value
// Decompose would actually use (K=4, α=0.1, t_th=0.9, ...), so that two
// Options spellings of the same run compare — and hash — equal. It panics
// for K == 1 or negative K, like Decompose.
func (o Options) Normalize() Options { return o.withDefaults() }

func (o Options) withDefaults() Options {
	if o.K == 0 {
		o.K = 4
	}
	if o.K < 2 {
		panic("core: K must be >= 2")
	}
	if o.Alpha == 0 {
		o.Alpha = 0.1
	}
	if o.Threshold == 0 {
		o.Threshold = 0.9
	}
	if o.ILPTimeLimit == 0 {
		o.ILPTimeLimit = 60 * time.Second
	}
	// Auto never reads Algorithm, so it normalizes to zero and two
	// spellings of the same run compare — and cache/session-key — equal.
	if o.Engine == EngineAuto {
		o.Algorithm = 0
	}
	// Memoize no longer selects anything (the shape tier serves every
	// deterministic solve), so it normalizes off and spellings compare equal.
	o.Memoize = false
	o.Build.K = o.K
	o.Division.K = o.K
	o.Division.Alpha = o.Alpha
	return o
}

// Result is a completed decomposition.
type Result struct {
	// Graph is the decomposition graph the solution colors.
	Graph *Graph
	// Colors holds one mask index in [0, K) per fragment.
	Colors []int
	// Conflicts and Stitches are the objective values (Table 1's cn#/st#).
	Conflicts int
	Stitches  int
	// Proven is false when some piece's exact search was cut short: the
	// ILP engine hit its time budget (the paper's "N/A (>3600s)"
	// condition), an SDP+Backtrack search hit its node cap (every K=5
	// Table 2 run), or auto kept Linear's coloring of such a capped piece.
	// A degraded result is never proven either.
	Proven bool
	// AssignTime is the total time of division plus color assignment.
	AssignTime time.Duration
	// SolverTime is the time spent coloring division pieces: the Dispatch
	// stage's clock, DivisionStats.Stages[pipeline.StageDispatch].Wall,
	// which includes the shape-tier lookups and the linear fallback of
	// pieces cut off by cancellation. This matches the paper's CPU(s)
	// column: Section 6 reports "color assignment time", with graph
	// construction and graph division being separate stages of the Fig. 2
	// flow. With Division.Workers > 1 it sums across goroutines (CPU time,
	// not wall clock).
	SolverTime time.Duration
	// DivisionStats reports what the division did, including the
	// per-stage telemetry map (DivisionStats.Stages, keyed by the
	// pipeline.Stage* names) covering every stage this call actually ran:
	// build appears for Decompose/DecomposeContext/ApplyEdits but not for
	// DecomposeGraph* (the graph was built earlier, possibly by someone
	// else's call — the serving layer re-attaches its own build timing).
	DivisionStats division.Stats
	// Degraded counts graph pieces colored by the linear-time fallback
	// because the context was cancelled (or its deadline passed) before
	// their engine solve started. Zero for an uncancelled run; when
	// positive, the coloring is valid but Proven is false and quality is
	// that of AlgLinear on the affected pieces.
	Degraded int
	// K and Alpha echo the options used.
	K     int
	Alpha float64
	// Options records the full normalized options of the run (worker
	// counts as requested). ApplyEdits compares them — ignoring the
	// result-neutral worker counts — against its own options, because
	// colors copied from this result are only valid under the exact
	// engine, seed, division, and stitch settings that produced them.
	Options Options

	// components is the number of connected components of Graph under
	// conflict ∪ stitch edges, or 0 when unknown (a result assembled
	// outside this package). ApplyEdits keeps it exact without walking
	// the components its edits did not touch.
	components int
}

// Masks groups fragment shapes by assigned mask.
func (r *Result) Masks() [][]geom.Polygon {
	out := make([][]geom.Polygon, r.K)
	for i, c := range r.Colors {
		out[c] = append(out[c], r.Graph.Fragments[i].Shape)
	}
	return out
}

// sharedScratch is the process-wide scratch-arena pool every solve path
// leases per-worker buffers from: division workers thread an arena into
// each engine call (SDP matrix workspace), SDP restart runners lease their
// own, and pooled arenas survive across service requests, so steady-state
// serving stops re-allocating hot-path memory. The allocation benchmarks
// (BenchmarkRepeatedSolve) compare this pool against an unpooled one.
var sharedScratch = pipeline.NewScratchPool()

// Decompose runs the full flow of Fig. 2 on a layout.
func Decompose(l *layout.Layout, opts Options) (*Result, error) {
	return DecomposeContext(context.Background(), l, opts)
}

// DecomposeContext is Decompose with cooperative cancellation: when ctx is
// cancelled (or its deadline passes), in-flight engine solves stop at their
// next cancellation checkpoint and return their incumbent, and pieces whose
// solve has not started fall back to the linear-time heuristic. The call
// therefore still returns a valid Result — with Degraded counting the
// fallback pieces and Proven false — rather than an error, so a serving
// layer can always answer with its best effort under a deadline.
func DecomposeContext(ctx context.Context, l *layout.Layout, opts Options) (*Result, error) {
	if err := checkEngine(opts); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	// The build deliberately ignores ctx: the degraded-result contract of
	// this API promises a valid best-effort coloring even when ctx is
	// already dead, and a half-built graph has no degraded form — an
	// abort-and-rebuild would only ever add work. Parallelism still applies
	// (opts.Build.Workers); callers that prefer abort-on-cancel semantics
	// compose BuildGraphContext with DecomposeGraphContext themselves.
	//lint:ignore ctxflow deliberate: a half-built graph has no degraded form, so aborting the build only adds work (see comment above)
	dg, err := BuildGraph(l, opts.Build)
	if err != nil {
		return nil, err
	}
	return decomposeGraph(ctx, dg, opts, true, sharedScratch, sharedShapes)
}

// DecomposeGraph colors an already-built decomposition graph; callers that
// sweep algorithms over one layout (cmd/evaluate) build the graph once.
func DecomposeGraph(dg *Graph, opts Options) (*Result, error) {
	return DecomposeGraphContext(context.Background(), dg, opts)
}

// DecomposeGraphContext is DecomposeGraph with the cancellation semantics
// of DecomposeContext.
func DecomposeGraphContext(ctx context.Context, dg *Graph, opts Options) (*Result, error) {
	if err := checkEngine(opts); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	return decomposeGraph(ctx, dg, opts, false, sharedScratch, sharedShapes)
}

// decomposeGraph is the divide-and-merge tail of every from-scratch solve:
// graph division with the run's Dispatch stage (newDispatch) over the
// scratch pool and the shape tier, then Merge — validate the full
// coloring, count the objective, assemble the Result. Division tallies
// its own Simplify, Partition, Dispatch and Stitch regions; build reports
// whether this call built dg, whose own clock (Stats.Timing.Total) is
// then the Build stage. Tests pass their own pool and shape tier, so the
// allocation benchmarks can compare pooled against unpooled arenas and
// the traffic tests can count against a fresh (or disabled) tier. opts
// must be validated and defaulted.
func decomposeGraph(ctx context.Context, dg *Graph, opts Options, build bool, pool *pipeline.ScratchPool, shapes *flight.Cache[shapeEntry]) (*Result, error) {
	start := time.Now()
	d, solve := newDispatch(ctx, opts, pool, shapes)
	colors, st := division.DecomposeEnv(ctx, dg.G, opts.Division, d.env, solve)
	unproven := d.drainInto(&st)
	assignTime := time.Since(start)
	if build {
		st.AddStage(pipeline.StageBuild, dg.Stats.Timing.Total)
	}

	tMerge := time.Now()
	if err := coloring.Validate(dg.G, colors, opts.K); err != nil {
		return nil, fmt.Errorf("core: internal error: %w", err)
	}
	conf, stit := coloring.Count(dg.G, colors)
	st.AddStage(pipeline.StageMerge, time.Since(tMerge))
	return &Result{
		Graph:         dg,
		Colors:        colors,
		Conflicts:     conf,
		Stitches:      stit,
		Proven:        !unproven && st.Fallbacks == 0,
		AssignTime:    assignTime,
		SolverTime:    st.Stages[pipeline.StageDispatch].Wall,
		DivisionStats: st,
		Degraded:      st.Fallbacks,
		K:             opts.K,
		Alpha:         opts.Alpha,
		Options:       opts,
		components:    st.Components,
	}, nil
}

// solved is what the engine dispatcher reports about one piece: its
// colors, the engine label they carry ("fallback" when the spent ILP
// budget made the linear fallback answer), whether the kept result's exact
// search was cut short, and whether the solve is deterministic enough for
// the shape tier to keep.
type solved struct {
	colors   []int
	engine   string
	unproven bool
	keep     bool
}

// pieceSolver colors one division piece and reports how (solved).
type pieceSolver func(g *graph.Graph, sc *pipeline.Scratch) solved

// makeSolver builds the per-piece engine dispatcher the Dispatch stage
// calls: the fixed Options.Algorithm engine, or auto's portfolio.Select
// choice when Options.Engine is EngineAuto. Each call runs on the calling
// worker's scratch arena, and the env carries the run's parallelism budget
// down into the SDP restart fan-out, so the dispatcher is safe for the
// division's concurrent workers.
// A piece is unproven when the kept result's exact search was cut short
// (node limit, time budget, or ctx cancellation mid-solve). A piece the
// ILP engine never solved, because the run's budget was already spent, is
// colored by Linear and labeled "fallback", not ILP.
// Auto adds one deterministic best-of: when its SDP+Backtrack solve comes
// back unproven (node-capped), Linear colors the piece too and is kept
// only at a strictly lower cost. Ties keep SDP+Backtrack, so auto's bytes
// move only where the cap actually cost quality (DESIGN.md §8).
// The keep rule lives here too: a solve is kept when it is deterministic,
// that is, its context is still live and no wall clock cut it short. A
// node-capped SDP+Backtrack solve and auto's best-of answer for it are
// kept (the cap counts nodes and the SDP restarts are seeded), stored with
// their unproven flag; an ILP solve cut short by ILPTimeLimit and the
// "fallback" answer are not.
func makeSolver(ctx context.Context, opts Options, env pipeline.Env) pieceSolver {
	// The shared ILP budget is a wall-clock deadline by contract: budget
	// exhaustion degrades pieces to the linear fallback, tallied as
	// "fallback" and surfaced via Proven=false — never as different bytes
	// under a proven label (portfolio_gate_test pins this).
	//lint:ignore determinism shared ILP budget; expiry degrades to fallback + Proven=false, not silent byte drift
	ilpDeadline := time.Now().Add(opts.ILPTimeLimit)
	lin := coloring.LinearOptions{K: opts.K, Alpha: opts.Alpha}
	// solve runs one class on the worker's arena.
	solve := func(class portfolio.Class, g *graph.Graph, sc *pipeline.Scratch) solved {
		p := solved{engine: class.String()}
		switch class {
		case portfolio.Linear:
			p.colors = coloring.Linear(g, lin)
		case portfolio.SDPGreedy:
			p.colors = coloring.SDPGreedy(g, solveSDP(ctx, g, opts, sc, env), opts.K, opts.Alpha)
		case portfolio.SDPBacktrack:
			var ok bool
			p.colors, ok = coloring.SDPBacktrackContext(ctx, g, solveSDP(ctx, g, opts, sc, env), opts.K, opts.Alpha, opts.Threshold, backtrackNodeLimit)
			p.unproven = !ok
		case portfolio.ILP:
			if time.Until(ilpDeadline) <= 0 {
				// Budget exhausted: Linear keeps the run going so the
				// harness can still report a (non-optimal) solution.
				return solved{colors: coloring.Linear(g, lin), engine: "fallback", unproven: true}
			}
			// The search polls its context at every node, so the
			// budget cuts it at the first node past the deadline.
			ilpCtx, cancel := context.WithDeadline(ctx, ilpDeadline)
			res := coloring.ILPAssignContext(ilpCtx, g, opts.K, opts.Alpha)
			cancel()
			p.colors, p.unproven = res.Colors, !res.Proven
		default:
			panic(fmt.Sprintf("core: unknown engine class %v", class))
		}
		// Only an unproven ILP answer depends on the clock.
		p.keep = ctx.Err() == nil && (class != portfolio.ILP || !p.unproven)
		return p
	}
	if opts.Engine == EngineAuto {
		return func(g *graph.Graph, sc *pipeline.Scratch) solved {
			class := portfolio.Select(portfolio.Analyze(g))
			p := solve(class, g, sc)
			if class != portfolio.SDPBacktrack || !p.unproven {
				return p
			}
			l := coloring.Linear(g, lin)
			if coloring.Cost(g, l, opts.Alpha) < coloring.Cost(g, p.colors, opts.Alpha) {
				return solved{colors: l, engine: portfolio.Linear.String(), unproven: true, keep: p.keep}
			}
			return p
		}
	}
	return func(g *graph.Graph, sc *pipeline.Scratch) solved {
		return solve(opts.Algorithm, g, sc)
	}
}

func solveSDP(ctx context.Context, g *graph.Graph, opts Options, sc *pipeline.Scratch, env pipeline.Env) *sdp.Solution {
	return sdp.SolveScratchEnv(ctx, g, sdp.Options{K: opts.K, Alpha: opts.Alpha, Seed: opts.Seed}, sc, env)
}

// VerifySolution independently re-derives conflicts from geometry: it
// rebuilds neighbor relations with a fresh neighbour join over the
// fragments' bounds at MinS and counts same-mask fragment pairs of
// different features within MinS, plus stitch mismatches between touching
// fragments of one feature. It must agree with Result.Conflicts/Stitches —
// a cross-check that graph construction and coloring agree (used by tests
// and cmd/qpld -verify). A coloring with a mask outside [0, r.K), or a
// result with K < 2, is an error.
func VerifySolution(r *Result) (conflicts, stitches int, err error) {
	dg := r.Graph
	if len(r.Colors) != len(dg.Fragments) {
		return 0, 0, fmt.Errorf("core: color count %d != fragment count %d", len(r.Colors), len(dg.Fragments))
	}
	if r.K < 2 {
		return 0, 0, fmt.Errorf("core: result has K=%d, want >= 2", r.K)
	}
	for i, c := range r.Colors {
		if c < 0 || c >= r.K {
			return 0, 0, fmt.Errorf("core: fragment %d has mask %d outside [0, %d)", i, c, r.K)
		}
	}
	minSq := int64(dg.MinS) * int64(dg.MinS)
	join := spatial.NewJoin(fragmentBounds(dg), dg.MinS)
	for s := range join.Strips() {
		join.Sweep(s, func(i, j int32) {
			fi, fj := dg.Fragments[i], dg.Fragments[j]
			d := geom.GapSqPoly(fi.Shape, fj.Shape)
			if fi.Feature != fj.Feature {
				if d <= minSq && r.Colors[i] == r.Colors[j] {
					conflicts++
				}
			} else if d == 0 && r.Colors[i] != r.Colors[j] {
				stitches++
			}
		})
	}
	return conflicts, stitches, nil
}

// fragmentBounds returns the bounding box of every fragment of dg.
func fragmentBounds(dg *Graph) []geom.Rect {
	bounds := make([]geom.Rect, len(dg.Fragments))
	for i, fr := range dg.Fragments {
		bounds[i] = fr.Shape.Bounds()
	}
	return bounds
}

// BalanceMasks rebalances mask usage by rotating the colors of whole
// connected components (cost-free: conflict and stitch counts are
// invariant), the extension of the balanced-density objective from the
// paper's reference [10]. It mutates r.Colors and returns the global
// density spread (max−min over mean of per-mask area) before and after.
func BalanceMasks(r *Result) (before, after float64) {
	areas := make([]int64, len(r.Graph.Fragments))
	for i, fr := range r.Graph.Fragments {
		areas[i] = fr.Shape.Area()
	}
	before = balance.Spread(balance.MaskAreas(r.Colors, areas, r.K))
	balance.Rebalance(r.Graph.G, r.Colors, areas, r.K)
	after = balance.Spread(balance.MaskAreas(r.Colors, areas, r.K))
	return before, after
}
