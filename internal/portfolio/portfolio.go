// Package portfolio implements adaptive per-component engine selection for
// the color-assignment stage. The paper's hybrid flow (SDP relaxation with
// an LP speedup, backtracking, exact ILP on small hard components) already
// implies that no single engine is right for every connected component: the
// exact ILP is unbeatable on the small dense cores the division pipeline
// isolates but ages exponentially with component size, while the SDP
// engines and the linear heuristic trade quality for orders of magnitude in
// wall time (see the recorded BENCH trajectory, EXPERIMENTS.md).
//
// The package offers two policies over the four engine classes:
//
//   - auto — Select reads the component's structure (vertex count,
//     conflict edges, odd-cycle evidence) and names the engine the
//     constant thresholds predict is the cheapest one achieving reference
//     quality; the caller runs it;
//   - race — run two candidate engines concurrently under one shared
//     deadline budget, keep the first result whose cost is provably optimal
//     (cost 0: no conflicts, no stitches — the objective's lower bound), or
//     the better of the two once both finish or the budget expires, and
//     cancel the loser through the usual context plumbing.
//
// Engines are supplied by the caller as context-aware solve functions, so
// the package stays free of solver dependencies and the division pipeline
// stays solver-agnostic. Class is the repository's one engine enum
// (core.Algorithm aliases it).
package portfolio

import (
	"context"
	"fmt"
	"time"

	"mpl/internal/coloring"
	"mpl/internal/graph"
	"mpl/internal/pipeline"
)

// Class identifies one color-assignment engine. It is the only engine enum:
// core.Algorithm aliases it, and the values are those the options
// signature has always encoded (alg=0 … alg=3), so they must not move.
type Class int

// The four engine classes of the paper's Tables 1–2.
const (
	// ILP is the exact integer-linear-programming baseline.
	ILP Class = iota
	// SDPBacktrack is SDP relaxation + merged-graph backtracking (Alg. 1).
	SDPBacktrack
	// SDPGreedy is SDP relaxation + greedy mapping.
	SDPGreedy
	// Linear is the linear-time color assignment (Alg. 2).
	Linear
	// NumClasses sizes engine tables indexed by Class.
	NumClasses
)

// String returns the paper's column name of the class, which is also its
// engine-histogram label.
func (c Class) String() string {
	switch c {
	case ILP:
		return "ILP"
	case SDPBacktrack:
		return "SDP+Backtrack"
	case SDPGreedy:
		return "SDP+Greedy"
	case Linear:
		return "Linear"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Solver colors one connected component, honoring ctx cooperatively: on
// cancellation it returns its incumbent (a complete, valid coloring) rather
// than blocking — the contract every engine in this repository obeys. The
// scratch arena (nil-safe) is the worker's reusable engine workspace; a
// solver must be done with every carved buffer by the time its colors are
// consumed, because the next solve on the same arena reclaims them.
type Solver func(ctx context.Context, g *graph.Graph, sc *pipeline.Scratch) []int

// Profile captures the component structure the selection rule reads.
type Profile struct {
	// N is the vertex (fragment) count.
	N int
	// ConflictEdges is the component's |CE|.
	ConflictEdges int
	// OddEdges counts conflict edges whose endpoints land in the same part
	// of a BFS 2-coloring — each one closes an odd cycle, the structures
	// that make K-coloring hard. Zero means the conflict graph is
	// bipartite (2-colorable, so conflicts are always avoidable).
	OddEdges int
}

// Analyze profiles one component in O(N + E).
func Analyze(g *graph.Graph) Profile {
	n := g.N()
	p := Profile{N: n, ConflictEdges: g.ConflictEdgeCount()}
	// BFS 2-coloring of the conflict graph; same-side edges witness odd
	// cycles. The count is deterministic for a given adjacency (BFS from
	// ascending roots over canonical sorted adjacency).
	side := make([]int8, n)
	queue := make([]int, 0, n)
	for s := 0; s < n; s++ {
		if side[s] != 0 {
			continue
		}
		side[s] = 1
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, w := range g.ConflictNeighbors(u) {
				wi := int(w)
				if side[wi] == 0 {
					side[wi] = -side[u]
					queue = append(queue, wi)
				} else if side[wi] == side[u] && wi > u {
					p.OddEdges++ // counted once per undirected edge
				}
			}
		}
	}
	return p
}

// The auto-mode decision boundaries, calibrated on the recorded BENCH
// trajectory (DESIGN.md §8). They are constants, not options: the options
// signature still records them for the adaptive engines (pf.* fields), so
// changing one re-keys every auto and race cache entry and durable
// session.
const (
	// ILPMaxN is the largest component (vertices) routed to the exact ILP.
	// Below it the branch-and-bound proves optimality in microseconds to
	// low milliseconds; past it the exact search ages exponentially
	// (BENCH: the C1355 core at 20 vertices / 56 conflict edges alone
	// costs ~3.4 s, versus ~25 ms for the 16-vertex / 43-edge cores of
	// the other committed circuits).
	ILPMaxN = 16
	// ILPMaxM caps the conflict-edge count for the ILP tier — a second
	// guard because dense king-graph patches blow up the model size long
	// before the vertex bound does.
	ILPMaxM = 48
	// BacktrackMaxN is the largest component routed to SDP+Backtrack;
	// larger components go to SDP+Greedy and anything past GreedyMaxN to
	// the linear-time engine.
	BacktrackMaxN = 3000
	// GreedyMaxN is the largest component routed to SDP+Greedy.
	GreedyMaxN = 20000
)

// Select is the auto policy: the cheapest engine class predicted to reach
// reference quality on a component shaped like p.
//
//   - Small hard components — ≤ ILPMaxN vertices, ≤ ILPMaxM conflict edges
//     (the density guard: exact-search cost tracks edges as much as
//     vertices), and at least one odd cycle — go to the exact ILP: optimal
//     and cheap at this size, covering the K5 crosses and small macro
//     cores that dominate the committed circuits' conflict counts.
//   - A bipartite conflict graph (OddEdges == 0) skips the ILP tier: its
//     conflicts are always avoidable and SDP+Backtrack reaches the
//     conflict-free optimum in milliseconds, so only stitch ties remain —
//     not worth the exact search in auto mode (race mode may still bet on
//     ILP under budget, see RacePair).
//   - Everything else up to BacktrackMaxN stays on SDP+Backtrack —
//     odd-cycle-rich mid-size components are exactly where greedy SDP
//     mapping degrades (Table 1).
//   - Past BacktrackMaxN the backtrack search space is hopeless within any
//     serving deadline: SDP+Greedy until GreedyMaxN, Linear beyond.
func Select(p Profile) Class {
	if p.N <= ILPMaxN && p.ConflictEdges <= ILPMaxM && p.OddEdges > 0 {
		return ILP
	}
	if p.N <= BacktrackMaxN {
		return SDPBacktrack
	}
	if p.N <= GreedyMaxN {
		return SDPGreedy
	}
	return Linear
}

// RacePair is the race policy: the primary is auto's Select choice (so a
// race degenerates to auto whenever the secondary cannot beat it), the
// secondary is the complementary bet:
//
//   - primary ILP races SDP+Backtrack — insurance against an exact search
//     that overruns the budget (the backtrack incumbent is near-optimal);
//   - primary SDP+Backtrack races the exact ILP while the component is
//     within 3× of the ILP tier — the budget, not a size cliff, decides
//     whether exactness was affordable;
//   - everything larger races the linear-time engine, which guarantees a
//     full-quality *completed* answer inside any budget the expensive
//     primary might miss.
func RacePair(p Profile) (primary, secondary Class) {
	primary = Select(p)
	switch primary {
	case ILP:
		return ILP, SDPBacktrack
	case SDPBacktrack:
		if p.N <= 3*ILPMaxN && p.ConflictEdges <= 3*ILPMaxM {
			return SDPBacktrack, ILP
		}
		return SDPBacktrack, Linear
	default:
		return primary, Linear
	}
}

// Outcome reports how one race went.
type Outcome struct {
	// Winner is the class whose coloring was kept.
	Winner Class
	// ProvenOptimal reports the cost-0 early exit: the winner's coloring
	// has no conflicts and no stitches, the objective's lower bound.
	ProvenOptimal bool
}

// Race profiles g, picks the candidate pair, and runs both concurrently
// under the shared budget (a child context of ctx; 0 means no extra bound
// beyond ctx itself). The first result with cost 0 wins immediately and the
// loser is cancelled; otherwise both results are awaited — every engine
// returns its incumbent promptly once the budget context expires — and the
// better cost wins, ties going to the primary so that a race whose
// secondary cannot strictly beat auto's choice returns byte-identical
// colors to auto mode.
// Racers lease their own scratch arenas from the env's pool (nil disables
// pooling) rather than sharing the caller's: a cancelled loser keeps
// running — and writing into its arena — until its next checkpoint, which
// may be after Race has returned, so the caller's arena must never be
// exposed to it. The env's parallelism budget rides along untouched — the
// engines themselves (SDP restarts) decide whether to claim idle slots.
func Race(ctx context.Context, g *graph.Graph, alpha float64, budget time.Duration, engines [NumClasses]Solver, env pipeline.Env) ([]int, Outcome) {
	pool := env.Scratch
	primary, secondary := RacePair(Analyze(g))
	if primary == secondary {
		sc := pool.Get()
		colors, out := engines[primary](ctx, g, sc), Outcome{Winner: primary}
		pool.Put(sc)
		return colors, out
	}
	var rctx context.Context
	var cancel context.CancelFunc
	if budget > 0 {
		rctx, cancel = context.WithTimeout(ctx, budget)
	} else {
		rctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	type attempt struct {
		class  Class
		colors []int
		cost   float64
	}
	// Buffered: the loser's send never blocks, so a cancelled engine's
	// goroutine always exits once it reaches its next checkpoint — the
	// leak-freedom the race/cancellation tests pin down.
	ch := make(chan attempt, 2)
	run := func(c Class) {
		// The racer goroutine owns its lease: the arena returns to the
		// pool only once this engine has actually finished, which for a
		// cancelled loser can be after Race itself has returned.
		sc := pool.Get()
		colors := engines[c](rctx, g, sc)
		pool.Put(sc)
		ch <- attempt{class: c, colors: colors, cost: coloring.Cost(g, colors, alpha)}
	}
	go run(primary)
	go run(secondary)

	first := <-ch
	if first.cost == 0 {
		// Provably optimal: cost has lower bound 0, nothing can beat it.
		// Cancel the loser and return without waiting for it.
		cancel()
		return first.colors, Outcome{Winner: first.class, ProvenOptimal: true}
	}
	second := <-ch

	pri, sec := first, second
	if pri.class != primary {
		pri, sec = second, first
	}
	if sec.cost < pri.cost {
		return sec.colors, Outcome{Winner: sec.class}
	}
	return pri.colors, Outcome{Winner: pri.class}
}
