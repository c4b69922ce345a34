// Package portfolio implements adaptive per-component engine selection for
// the color-assignment stage. The paper's hybrid flow (SDP relaxation with
// an LP speedup, backtracking, exact ILP on small hard components) already
// implies that no single engine is right for every connected component: the
// exact ILP is unbeatable on the small dense cores the division pipeline
// isolates but ages exponentially with component size, while the SDP
// engines and the linear heuristic trade quality for orders of magnitude in
// wall time (see the recorded BENCH trajectory, EXPERIMENTS.md).
//
// The package's one policy over the four engine classes is auto: Select
// reads the component's structure (vertex count, conflict edges, odd-cycle
// evidence) and names the engine the constant thresholds predict is the
// cheapest one achieving reference quality; the caller runs it (core's
// auto also keeps Linear's coloring of a node-capped SDP+Backtrack piece
// when it costs strictly less).
//
// The package only profiles and names; it runs nothing. internal/core
// owns the one switch from a Class to its engine call, so this package
// stays free of solver dependencies and the division pipeline stays
// solver-agnostic. Class is the repository's one engine enum
// (core.Algorithm aliases it).
package portfolio

import (
	"fmt"

	"mpl/internal/graph"
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
// changing one re-keys every auto cache entry and durable session.
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
//     not worth the exact search.
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
