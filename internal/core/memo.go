package core

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"mpl/internal/canon"
	"mpl/internal/division"
	"mpl/internal/flight"
	"mpl/internal/graph"
	"mpl/internal/pipeline"
)

// shapeEntry is one stored piece solve: the colors in the piece's own
// labeling, the engine label of the solve that produced them, so a hit
// is tallied under the engine whose answer it carries, and whether that
// solve's exact search was node-capped, so a hit is as unproven as the
// fresh solve it replays.
type shapeEntry struct {
	colors   []int
	engine   string
	unproven bool
}

// sharedShapes is the process-wide shape tier every deterministic solve
// path shares (like sharedScratch): real workloads repeat standard cells
// across layouts, across requests and across the steps of an ECO session,
// so hits compound over the life of the process. Entries are deterministic
// piece solves (proven or node-capped), one per labeled encoding; bounded,
// least-recently-used entries evicted beyond the bound.
var sharedShapes = flight.New[shapeEntry](4096, nil)

// shapeOptionsSig is the solver-configuration part of a shape-tier key:
// two runs may share stored colors only when every option an engine reads
// matches. Fields that cannot change a piece's deterministic solution are
// zeroed — worker counts and build tuning don't reach the engines, and the
// wall-clock ILPTimeLimit is excluded because a piece whose own solve was
// cut short by it is never stored (see makeSolver's keep rule), so every
// ILP entry is the budget-independent exact answer. The backtracking node
// cap is not an option but does shape a capped solve's colors, so it is
// part of the signature too.
func shapeOptionsSig(o Options) string {
	o = o.withDefaults()
	o.ILPTimeLimit = 0
	o.Build = BuildOptions{}
	o.Division = division.Options{}
	return fmt.Sprintf("%#v nodes=%d", o, backtrackNodeLimit)
}

// dispatch is one run's Dispatch stage, shared by the from-scratch and the
// incremental divide: the engine dispatcher (makeSolver) behind the shape
// tier, plus the run's engine histogram, shape counters and provenness,
// which division workers accumulate concurrently into tally and drainInto
// publishes once the division has finished. The stage's clock is
// division's own (Stats.Stages[pipeline.StageDispatch]), not kept here.
type dispatch struct {
	env    pipeline.Env
	inner  pieceSolver
	shapes *flight.Cache[shapeEntry]
	sig    string

	mu       sync.Mutex
	tally    division.Stats      // guarded by mu; only Engines and Shapes.Hits/Misses
	unproven bool                // guarded by mu
	distinct map[string]struct{} // guarded by mu; only len() is read, never ranged
}

// newDispatch builds the Dispatch stage of one run over the scratch pool
// and the shape tier, returning it with the division.Solver that runs
// pieces through it under ctx. The run's pipeline environment couples the
// division worker pool to the engines: one scratch pool for every arena
// lease, and one parallelism budget (sized to Division.Workers) shared by
// component-level workers and the SDP restart fan-out, so their combined
// goroutine count never exceeds the configured worker allowance.
func newDispatch(ctx context.Context, opts Options, pool *pipeline.ScratchPool, shapes *flight.Cache[shapeEntry]) (*dispatch, division.Solver) {
	d := &dispatch{
		env:      pipeline.Env{Scratch: pool, Budget: pipeline.NewBudget(opts.Division.Workers)},
		shapes:   shapes,
		sig:      shapeOptionsSig(opts) + "\x00",
		distinct: make(map[string]struct{}),
	}
	d.inner = makeSolver(ctx, opts, d.env)
	return d, func(g *graph.Graph, sc *pipeline.Scratch) []int { return d.solve(ctx, g, sc).colors }
}

// solve colors one division piece. Each piece is encoded with its own
// labeling; byte-identical repeats of an already-solved piece copy out the
// stored colors, and misses solve through the engine dispatcher under the
// encoding's single flight, so a hot shape solves once even when every
// division worker hits it at the same time. A solve is stored only when
// the dispatcher reports it deterministic (makeSolver's keep rule), so the
// tier never replays degraded or clock-cut colors; a worker whose context
// dies while waiting on another's flight (Bypass) solves locally.
//
// The entry key is (options signature, labeled encoding). Byte-equal
// encodings are the same labeled graph, and the engines are deterministic
// functions of that graph and the options, so replaying a stored coloring
// is exactly what a fresh solve of the piece would produce. No canonical
// form is needed, and none would be sound: the engines break ties by
// vertex index, so an isomorphic but differently-labeled twin can
// legitimately color differently (DESIGN.md §11).
func (d *dispatch) solve(ctx context.Context, g *graph.Graph, sc *pipeline.Scratch) solved {
	n := g.N()
	if n > canon.MaxVertices {
		return d.record(d.inner(g, sc), "", false) // uncounted: never a tier candidate
	}
	// The encoding is self-delimiting (uvarint-counted) and the signature
	// ends in a NUL, so the concatenation identifies the pair.
	key := d.sig + string(canon.Encode(g))
	var p solved
	stored, outcome, _ := d.shapes.Do(ctx, key, func() (shapeEntry, bool, error) {
		p = d.inner(g, sc)
		if !p.keep {
			return shapeEntry{}, false, nil
		}
		return shapeEntry{slices.Clone(p.colors), p.engine, p.unproven}, true, nil
	})
	switch outcome {
	case flight.Hit:
		out := sc.Ints(n)
		copy(out, stored.colors)
		return d.record(solved{colors: out, engine: stored.engine, unproven: stored.unproven}, key, true)
	case flight.Bypass: // context died waiting on another flight
		p = d.inner(g, sc)
	}
	return d.record(p, key, false)
}

// record tallies one served piece: its engine label and provenness, and,
// for a tier candidate (key non-empty), a hit or a miss of key.
func (d *dispatch) record(p solved, key string, hit bool) solved {
	d.mu.Lock()
	d.unproven = d.unproven || p.unproven
	d.tally.AddEngine(p.engine, 1)
	if key != "" {
		if hit {
			d.tally.Shapes.Hits++
		} else {
			d.tally.Shapes.Misses++
		}
		d.distinct[key] = struct{}{}
	}
	d.mu.Unlock()
	return p
}

// drainInto publishes the run's engine histogram and shape counters to st
// after the division has finished, and reports whether any served piece
// was unproven.
func (d *dispatch) drainInto(st *division.Stats) (unproven bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	st.Add(d.tally)
	st.Shapes.Distinct += len(d.distinct)
	return d.unproven
}
