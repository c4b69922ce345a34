package core

// Regression gate for the adaptive engine portfolio: auto mode must never
// be worse than the best single engine of the committed golden table
// (TestGoldenTable1Counts) on any committed circuit — that is the whole
// point of per-component selection, and the gate makes threshold or solver
// changes that lose it fail loudly instead of drifting. At K=5 (Table 2)
// the gate pins auto's own counts too, because there the fixed engines
// trade places and auto's best-of over capped SDP+Backtrack pieces is what
// keeps it ahead of both.

import (
	"path/filepath"
	"testing"
	"time"

	"mpl/internal/division"
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
			l, err := layout.ReadAny(filepath.Join("..", "..", "benchmarks", circuit+".lay"))
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

// goldenAutoK5 pins auto at K=5 on the two Table-2 golden circuits (seed 1,
// paper defaults) next to Linear's fixed counts; SDP+Backtrack's are
// goldenTable2. Every SDP+Backtrack search of these circuits' large pieces
// hits the node cap, so auto's best-of decides them: it keeps Linear's
// coloring of a capped piece whenever that costs strictly less.
var goldenAutoK5 = map[string]struct{ auto, linear [2]int }{
	"C6288": {auto: [2]int{38, 384}, linear: [2]int{39, 385}},
	"C7552": {auto: [2]int{43, 600}, linear: [2]int{43, 602}},
}

func TestAutoK5NeverWorseThanFixedEngines(t *testing.T) {
	if raceEnabled {
		t.Skip("auto's ILP tier makes C6288 at K=5 take seconds even without the race detector")
	}
	if testing.Short() {
		t.Skip("full-scale committed circuits; skipped in -short mode")
	}
	for circuit, want := range goldenAutoK5 {
		l, err := layout.ReadAny(filepath.Join("..", "..", "benchmarks", circuit+".lay"))
		if err != nil {
			t.Fatalf("%s: %v (the gate is pinned to the committed .lay files)", circuit, err)
		}
		g, err := BuildGraph(l, BuildOptions{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		lin, err := DecomposeGraph(g, Options{K: 5, Algorithm: AlgLinear, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got := [2]int{lin.Conflicts, lin.Stitches}; got != want.linear {
			t.Errorf("%s Linear: cn#/st# = %d/%d, gate says %d/%d", circuit, got[0], got[1], want.linear[0], want.linear[1])
		}
		best := goldenBest(map[Algorithm][2]int{AlgSDPBacktrack: goldenTable2[circuit], AlgLinear: want.linear})
		for _, workers := range []int{1, 2} {
			res, err := DecomposeGraph(g, Options{
				K: 5, Engine: EngineAuto, Seed: 1,
				ILPTimeLimit: 10 * time.Minute,
				Division:     division.Options{Workers: workers},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Conflicts > best[0] || (res.Conflicts == best[0] && res.Stitches > best[1]) {
				t.Errorf("%s workers=%d: auto cn#/st# = %d/%d exceeds the best fixed engine's %d/%d",
					circuit, workers, res.Conflicts, res.Stitches, best[0], best[1])
			}
			if res.Conflicts != want.auto[0] || res.Stitches != want.auto[1] || res.Proven {
				t.Errorf("%s workers=%d: auto cn#/st# = %d/%d proven=%v, gate says %d/%d unproven — if this change is intended, update goldenAutoK5 in the same commit",
					circuit, workers, res.Conflicts, res.Stitches, res.Proven, want.auto[0], want.auto[1])
			}
			conf, stit, err := VerifySolution(res)
			if err != nil {
				t.Fatal(err)
			}
			if conf != res.Conflicts || stit != res.Stitches {
				t.Errorf("%s workers=%d: VerifySolution recount %d/%d disagrees with result %d/%d",
					circuit, workers, conf, stit, res.Conflicts, res.Stitches)
			}
		}
	}
}
