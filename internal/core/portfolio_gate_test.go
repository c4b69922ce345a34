package core

// Regression gate for the adaptive engine portfolio: auto mode must never
// be worse than the best single engine of the committed golden table
// (TestGoldenTable1Counts) on any committed circuit — that is the whole
// point of per-component selection, and the gate makes threshold or solver
// changes that lose it fail loudly instead of drifting. The race policy is
// wall-clock dependent by design, so the gate pins auto only; race gets the
// weaker (but still strict) validity and no-worse-than-linear checks in
// portfolio_test.go.

import (
	"path/filepath"
	"testing"
	"time"

	"mpl/internal/layout"
)

// goldenBest returns the lexicographically best (cn#, st#) across the four
// fixed engines of the golden table — conflicts first, then stitches, the
// paper's objective ordering.
func goldenBest(engines map[Algorithm][2]int) [2]int {
	best := [2]int{1 << 30, 1 << 30}
	for _, v := range engines {
		if v[0] < best[0] || (v[0] == best[0] && v[1] < best[1]) {
			best = v
		}
	}
	return best
}

func TestAutoNeverWorseThanGoldenBest(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale committed circuits; skipped in -short mode")
	}
	for circuit, engines := range goldenCounts {
		circuit, engines := circuit, engines
		t.Run(circuit, func(t *testing.T) {
			l, err := layout.ReadFile(filepath.Join("..", "..", "benchmarks", circuit+".lay"))
			if err != nil {
				t.Fatalf("%s: %v (the gate is pinned to the committed .lay files)", circuit, err)
			}
			g, err := BuildGraph(l, BuildOptions{K: 4})
			if err != nil {
				t.Fatal(err)
			}
			res, err := DecomposeGraph(g, Options{
				K: 4, Engine: EngineAuto, Seed: 1,
				// Generous: the auto thresholds route only sub-cliff pieces
				// (≤ ILPMaxN vertices) to the exact engine, each tens of ms.
				ILPTimeLimit: 10 * time.Minute,
			})
			if err != nil {
				t.Fatal(err)
			}
			best := goldenBest(engines)
			if res.Conflicts > best[0] || (res.Conflicts == best[0] && res.Stitches > best[1]) {
				t.Errorf("auto cn#/st# = %d/%d exceeds the best single-engine golden counts %d/%d — "+
					"the portfolio thresholds regressed; recalibrate (internal/portfolio constants) in the same commit",
					res.Conflicts, res.Stitches, best[0], best[1])
			}
			// The gate also guards the flip side: auto must actually be
			// reproducible, so the same run twice must agree (the selection
			// is structural, the engines deterministic).
			res2, err := DecomposeGraph(g, Options{K: 4, Engine: EngineAuto, Seed: 1, ILPTimeLimit: 10 * time.Minute})
			if err != nil {
				t.Fatal(err)
			}
			if res2.Conflicts != res.Conflicts || res2.Stitches != res.Stitches {
				t.Errorf("auto is not deterministic: %d/%d then %d/%d", res.Conflicts, res.Stitches, res2.Conflicts, res2.Stitches)
			}
		})
	}
}
