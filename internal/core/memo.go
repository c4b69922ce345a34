package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"mpl/internal/canon"
	"mpl/internal/division"
	"mpl/internal/flight"
	"mpl/internal/graph"
	"mpl/internal/pipeline"
)

// sharedShapes is the process-wide shape cache every memoized solve path
// shares (like sharedScratch): real workloads repeat standard cells across
// layouts and across requests, so hits compound over the life of the
// process. Entries are solved colorings, one per labeled encoding, in the
// piece's own labeling; bounded, least-recently-used entries evicted
// beyond the bound.
var sharedShapes = flight.New[[]int](4096, nil)

// shapeTally accumulates one run's shape-cache counters while division
// workers hit the cache concurrently; drainInto publishes them to
// division.Stats.Shapes after the pipeline finishes (the same lifecycle as
// engineTally). Distinct is counted run-locally — the process-wide cache
// cannot answer "how many shapes did *this* run touch".
type shapeTally struct {
	mu       sync.Mutex
	hits     int                 // guarded by mu
	misses   int                 // guarded by mu
	distinct map[string]struct{} // guarded by mu; only len() is read, never ranged
}

func newShapeTally() *shapeTally { return &shapeTally{distinct: make(map[string]struct{})} }

func (t *shapeTally) hit(key string) {
	t.mu.Lock()
	t.hits++
	t.distinct[key] = struct{}{}
	t.mu.Unlock()
}

func (t *shapeTally) miss(key string) {
	t.mu.Lock()
	t.misses++
	t.distinct[key] = struct{}{}
	t.mu.Unlock()
}

func (t *shapeTally) drainInto(st *division.Stats) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st.Shapes.Hits += t.hits
	st.Shapes.Misses += t.misses
	st.Shapes.Distinct += len(t.distinct)
}

// shapeOptionsSig is the solver-configuration part of a shape-cache key:
// two runs may share cached colors only when every option an engine reads
// matches. Fields that cannot change a piece's deterministic solution are
// zeroed — worker counts and build tuning don't reach the engines, and the
// wall-clock budgets (ILPTimeLimit, RaceBudget) are excluded because a
// budget-expired solve is never stored in the first place (memoSolver
// skips storing once the run is unproven or cancelled), so every cached
// entry is the budget-independent exact answer.
func shapeOptionsSig(o Options) string {
	o = o.withDefaults()
	o.Memoize = false
	o.ILPTimeLimit = 0
	o.RaceBudget = 0
	o.Build = BuildOptions{}
	o.Division = division.Options{}
	return fmt.Sprintf("%#v", o)
}

// memoSolver wraps an engine dispatcher with the shape cache: each piece
// is encoded with its own labeling, byte-identical repeats of an
// already-solved piece copy out the stored colors (tallied as the "memo"
// engine), and cache misses solve through inner under the encoding's
// single flight so a hot shape solves once even when every division worker
// hits it at the same time. Only clean solves are kept: a piece solved
// after the run went unproven (ILP budget) or under a dying context is not
// stored, so the cache never replays degraded colors; a worker whose
// context dies while waiting on another's flight (Bypass) solves locally.
//
// The entry key is (options signature, labeled encoding). Byte-equal
// encodings are the same labeled graph, and the engines are deterministic
// functions of that graph and the options, so replaying a stored coloring
// is exactly what a memo-off solve of the piece would produce. No
// canonical form is needed, and none would be sound: the engines break
// ties by vertex index, so an isomorphic but differently-labeled twin can
// legitimately color differently (DESIGN.md §11).
func memoSolver(ctx context.Context, opts Options, inner division.Solver, unproven *atomic.Bool, tally *engineTally, shapes *flight.Cache[[]int], st *shapeTally) division.Solver {
	sig := shapeOptionsSig(opts) + "\x00"
	return func(g *graph.Graph, sc *pipeline.Scratch) []int {
		n := g.N()
		if n > canon.MaxVertices {
			return inner(g, sc) // uncounted: never a cache candidate
		}
		// The encoding is self-delimiting (uvarint-counted) and the
		// signature ends in a NUL, so the concatenation identifies the pair.
		key := sig + string(canon.Encode(g))
		var out []int
		stored, outcome, _ := shapes.Do(ctx, key, func() ([]int, bool, error) {
			out = inner(g, sc)
			if ctx.Err() != nil || unproven.Load() {
				return nil, false, nil
			}
			return slices.Clone(out), true, nil
		})
		switch outcome {
		case flight.Hit:
			st.hit(key)
			tally.add("memo")
			out = sc.Ints(n)
			copy(out, stored)
			return out
		case flight.Bypass: // context died waiting on another flight
			out = inner(g, sc)
		}
		st.miss(key)
		return out
	}
}
