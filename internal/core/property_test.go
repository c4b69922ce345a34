package core

// Property-based test over seeded random layouts: every engine — the four
// fixed ones plus the adaptive auto policy — must uphold the
// solution invariants on arbitrary (valid) geometry, not just the curated
// benchmark circuits. The invariants are exactly what VerifySolution and
// the golden tests rely on elsewhere:
//
//   - every feature survives into ≥ 1 fragment and every fragment is
//     colored with a mask in [0, K);
//   - stitch edges connect distinct fragments of one feature;
//   - the reported cn#/st# match both a graph recount (coloring.Count) and
//     an independent geometric recount (VerifySolution).

import (
	"fmt"
	"testing"
	"time"

	"mpl/internal/coloring"
	"mpl/internal/synth"
)

// propertyEngines is every engine the solve stage can dispatch.
var propertyEngines = []struct {
	name string
	opts Options
}{
	{"linear", Options{Algorithm: AlgLinear}},
	{"sdp-greedy", Options{Algorithm: AlgSDPGreedy}},
	{"sdp-backtrack", Options{Algorithm: AlgSDPBacktrack}},
	{"ilp", Options{Algorithm: AlgILP}},
	{"auto", Options{Engine: EngineAuto}},
}

func TestPropertyAllEnginesUpholdInvariants(t *testing.T) {
	cases := 200
	if raceEnabled {
		// The full grid is 200 layouts × 2 K × 5 engines; under the race
		// detector that is minutes of SDP descent with nothing new to
		// find. CI's non-race pass runs the full grid.
		cases = 40
	}
	if testing.Short() {
		cases = 25
	}
	for seed := 0; seed < cases; seed++ {
		l := synth.Random(int64(seed))
		for _, k := range []int{3, 4} {
			g, err := BuildGraph(l, BuildOptions{K: k})
			if err != nil {
				t.Fatalf("seed %d k %d: build: %v", seed, k, err)
			}
			for _, eng := range propertyEngines {
				opts := eng.opts
				opts.K = k
				opts.Seed = 1
				// A global budget so a hostile random core cannot stall the
				// exact engine; budget expiry degrades to the linear engine,
				// which must uphold the same invariants.
				opts.ILPTimeLimit = 250 * time.Millisecond
				res, err := DecomposeGraph(g, opts)
				if err != nil {
					t.Fatalf("seed %d k %d %s: %v", seed, k, eng.name, err)
				}
				label := fmt.Sprintf("seed %d k %d %s", seed, k, eng.name)
				assertSolutionInvariants(t, label, len(l.Features), k, res)
			}
		}
	}
}

// assertSolutionInvariants checks the full invariant set on one result.
func assertSolutionInvariants(t *testing.T, label string, features, k int, res *Result) {
	t.Helper()
	// Every feature colored: each of the layout's features owns at least
	// one fragment, and every fragment has a color in [0, k).
	seen := make(map[int]bool)
	for _, fr := range res.Graph.Fragments {
		seen[fr.Feature] = true
	}
	if len(seen) != features {
		t.Fatalf("%s: %d features, only %d appear in fragments", label, features, len(seen))
	}
	if err := coloring.Validate(res.Graph.G, res.Colors, k); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	// Stitch edges join distinct fragments of one feature.
	for _, e := range res.Graph.G.StitchEdges() {
		if e.U == e.V {
			t.Fatalf("%s: stitch self-loop at %d", label, e.U)
		}
		if fu, fv := res.Graph.Fragments[e.U].Feature, res.Graph.Fragments[e.V].Feature; fu != fv {
			t.Fatalf("%s: stitch edge (%d,%d) crosses features %d and %d", label, e.U, e.V, fu, fv)
		}
	}
	// Reported objective matches a graph recount and a geometric recount.
	conf, stit := coloring.Count(res.Graph.G, res.Colors)
	if conf != res.Conflicts || stit != res.Stitches {
		t.Fatalf("%s: reported %d/%d, graph recount %d/%d", label, res.Conflicts, res.Stitches, conf, stit)
	}
	vc, vs, err := VerifySolution(res)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if vc != res.Conflicts || vs != res.Stitches {
		t.Fatalf("%s: reported %d/%d, geometric recount %d/%d", label, res.Conflicts, res.Stitches, vc, vs)
	}
	// The dispatch histogram accounts for every solved or degraded piece.
	total := 0
	for _, n := range res.DivisionStats.Engines {
		total += n
	}
	if want := res.DivisionStats.SolverCalls + res.DivisionStats.Fallbacks; total != want {
		t.Fatalf("%s: engine histogram sums to %d, solver calls + fallbacks = %d (%v)",
			label, total, want, res.DivisionStats.Engines)
	}
}
