package core

import (
	"context"
	"slices"
	"testing"
	"time"

	"mpl/internal/bound"
	"mpl/internal/division"
	"mpl/internal/geom"
	"mpl/internal/layout"
	"mpl/internal/pipeline"
)

// contactCluster builds the Fig. 1 standard-cell contact scenario: four
// 20×20 contacts arranged in a square with 40 nm center pitch, so all four
// are pairwise within the QP coloring distance (80 nm) — a 4-clique.
func contactCluster() *layout.Layout {
	l := layout.New("fig1")
	for _, p := range []geom.Point{{X: 0, Y: 0}, {X: 40, Y: 0}, {X: 0, Y: 40}, {X: 40, Y: 40}} {
		l.AddRect(geom.Rect{X0: p.X, Y0: p.Y, X1: p.X + 20, Y1: p.Y + 20})
	}
	return l
}

func TestFig1FourClique(t *testing.T) {
	l := contactCluster()
	dg, err := BuildGraph(l, BuildOptions{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if dg.Stats.ConflictEdges != 6 {
		t.Fatalf("conflict edges = %d, want 6 (4-clique)", dg.Stats.ConflictEdges)
	}
	// Under TPL (K=3) one conflict is native; under QPL it vanishes.
	for _, tc := range []struct {
		k    int
		want int
	}{{3, 1}, {4, 0}} {
		res, err := Decompose(l, Options{K: tc.k, Algorithm: AlgLinear, Build: BuildOptions{MinS: 80}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Conflicts != tc.want {
			t.Fatalf("K=%d: conflicts = %d, want %d", tc.k, res.Conflicts, tc.want)
		}
	}
}

// TestFig7K5Structure: the paper's Fig. 7 — at mins = 2·sm + wm = 60 a
// regular pattern forms a K5 (center plus four arms all mutually within
// distance).
func TestFig7K5Structure(t *testing.T) {
	l := layout.New("fig7")
	for _, p := range []geom.Point{{X: 0, Y: 0}, {X: 40, Y: 0}, {X: -40, Y: 0}, {X: 0, Y: 40}, {X: 0, Y: -40}} {
		l.AddRect(geom.Rect{X0: p.X, Y0: p.Y, X1: p.X + 20, Y1: p.Y + 20})
	}
	dg, err := BuildGraph(l, BuildOptions{MinS: 60})
	if err != nil {
		t.Fatal(err)
	}
	if dg.Stats.ConflictEdges != 10 {
		t.Fatalf("conflict edges = %d, want 10 (K5)", dg.Stats.ConflictEdges)
	}
	// K5 is not 4-colorable: one conflict is native for every engine.
	for _, alg := range []Algorithm{AlgLinear, AlgSDPBacktrack, AlgSDPGreedy, AlgILP} {
		res, err := Decompose(l, Options{K: 4, Algorithm: alg, Build: BuildOptions{MinS: 60}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Conflicts != 1 {
			t.Fatalf("%v: conflicts = %d, want 1", alg, res.Conflicts)
		}
	}
}

func TestStitchCandidateGeneration(t *testing.T) {
	// A long horizontal wire flanked by two contacts near its ends: the
	// middle is projection-free, so exactly one stitch candidate appears.
	l := layout.New("stitch")
	l.AddRect(geom.Rect{X0: 0, Y0: 0, X1: 400, Y1: 20})    // the wire
	l.AddRect(geom.Rect{X0: 0, Y0: 60, X1: 60, Y1: 80})    // left neighbor (gap 40 < 80)
	l.AddRect(geom.Rect{X0: 340, Y0: 60, X1: 400, Y1: 80}) // right neighbor
	dg, err := BuildGraph(l, BuildOptions{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if dg.Stats.Fragments != 4 {
		t.Fatalf("fragments = %d, want 4 (wire split once + 2 contacts)", dg.Stats.Fragments)
	}
	if dg.Stats.StitchEdges != 1 {
		t.Fatalf("stitch edges = %d, want 1", dg.Stats.StitchEdges)
	}
	// The stitch lets the wire halves take different colors, resolving
	// both contacts conflict-free.
	res, err := Decompose(l, Options{K: 4, Algorithm: AlgILP})
	if err != nil {
		t.Fatal(err)
	}
	if res.Conflicts != 0 {
		t.Fatalf("conflicts = %d, want 0", res.Conflicts)
	}
}

func TestStitchDisabled(t *testing.T) {
	l := layout.New("nostitch")
	l.AddRect(geom.Rect{X0: 0, Y0: 0, X1: 400, Y1: 20})
	l.AddRect(geom.Rect{X0: 0, Y0: 60, X1: 60, Y1: 80})
	dg, err := BuildGraph(l, BuildOptions{K: 4, DisableStitches: true})
	if err != nil {
		t.Fatal(err)
	}
	if dg.Stats.Fragments != 2 || dg.Stats.StitchEdges != 0 {
		t.Fatalf("stats = %+v, want no splitting", dg.Stats)
	}
}

func TestColorFriendlyDetection(t *testing.T) {
	// Two contacts at gap 90: beyond mins=80 but inside mins+hp=100 →
	// friend edge, no conflict edge.
	l := layout.New("friend")
	l.AddRect(geom.Rect{X0: 0, Y0: 0, X1: 20, Y1: 20})
	l.AddRect(geom.Rect{X0: 110, Y0: 0, X1: 130, Y1: 20})
	dg, err := BuildGraph(l, BuildOptions{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if dg.Stats.ConflictEdges != 0 || dg.Stats.FriendEdges != 1 {
		t.Fatalf("stats = %+v, want 0 conflicts / 1 friend", dg.Stats)
	}
}

func TestVerifySolutionAgrees(t *testing.T) {
	l := layout.New("verify")
	// A denser cluster with a wire to produce conflicts and stitches.
	for x := 0; x < 5; x++ {
		for y := 0; y < 3; y++ {
			l.AddRect(geom.Rect{X0: x * 40, Y0: y * 40, X1: x*40 + 20, Y1: y*40 + 20})
		}
	}
	l.AddRect(geom.Rect{X0: 0, Y0: 160, X1: 400, Y1: 180})
	for _, alg := range []Algorithm{AlgLinear, AlgSDPGreedy} {
		res, err := Decompose(l, Options{K: 4, Algorithm: alg, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		conf, stit, err := VerifySolution(res)
		if err != nil {
			t.Fatal(err)
		}
		if conf != res.Conflicts || stit != res.Stitches {
			t.Fatalf("%v: verifier says %d/%d, result says %d/%d",
				alg, conf, stit, res.Conflicts, res.Stitches)
		}
	}

	// A mask outside [0, K), or a result with K < 2, must not verify.
	c432, _ := stageTestLayout(t)
	res, err := Decompose(c432, Options{K: 4, Algorithm: AlgLinear})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []int{7, -1} {
		bad := *res
		bad.Colors = append([]int(nil), res.Colors...)
		bad.Colors[0] = c
		if _, _, err := VerifySolution(&bad); err == nil {
			t.Errorf("Colors[0]=%d at K=4 verified", c)
		}
	}
	bad := *res
	bad.K = 1
	if _, _, err := VerifySolution(&bad); err == nil {
		t.Error("K=1 result verified")
	}
}

func TestEmptyLayout(t *testing.T) {
	res, err := Decompose(layout.New("empty"), Options{K: 4, Algorithm: AlgLinear})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Colors) != 0 || res.Conflicts != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestInvalidLayoutRejected(t *testing.T) {
	l := layout.New("bad")
	l.Add(geom.NewPolygon(geom.Rect{X0: 0, Y0: 0, X1: 2, Y1: 2}, geom.Rect{X0: 50, Y0: 50, X1: 52, Y1: 52}))
	if _, err := Decompose(l, Options{K: 4}); err == nil {
		t.Fatal("disconnected feature accepted")
	}
}

func TestMasksPartition(t *testing.T) {
	l := contactCluster()
	res, err := Decompose(l, Options{K: 4, Algorithm: AlgLinear})
	if err != nil {
		t.Fatal(err)
	}
	masks := res.Masks()
	if len(masks) != 4 {
		t.Fatalf("masks = %d", len(masks))
	}
	total := 0
	for _, m := range masks {
		total += len(m)
	}
	if total != len(res.Graph.Fragments) {
		t.Fatalf("mask fragments = %d, want %d", total, len(res.Graph.Fragments))
	}
	// The 4-clique must use all four masks exactly once.
	for c, m := range masks {
		if len(m) != 1 {
			t.Fatalf("mask %d holds %d fragments, want 1", c, len(m))
		}
	}
}

func TestILPTimeBudgetReportsUnproven(t *testing.T) {
	// A layout with several K5 clusters and a 1 ns budget: the ILP engine
	// must fall back and clear Proven. The solve runs on a disabled shape
	// tier: budgets are not part of the tier key, so a tier hit would
	// return a stored proven answer (checked below).
	l := layout.New("budget")
	for cluster := 0; cluster < 3; cluster++ {
		ox := cluster * 1000
		for _, p := range []geom.Point{{X: ox, Y: 0}, {X: ox + 40, Y: 0}, {X: ox - 40, Y: 0}, {X: ox, Y: 40}, {X: ox, Y: -40}} {
			l.AddRect(geom.Rect{X0: p.X, Y0: p.Y, X1: p.X + 20, Y1: p.Y + 20})
		}
	}
	dg, err := BuildGraph(l, BuildOptions{K: 4, MinS: 60})
	if err != nil {
		t.Fatal(err)
	}
	budget := Options{K: 4, Algorithm: AlgILP, ILPTimeLimit: time.Nanosecond}
	if res := tierRun(t, dg, budget, noTier()); res.Proven {
		t.Fatal("1ns ILP budget reported proven")
	}
	// The fallback answers of a spent budget are never stored.
	if tier := freshTier(); tierRun(t, dg, budget, tier).Proven || tier.Len() != 0 {
		t.Fatalf("1ns ILP budget through a tier: %d entries stored", tier.Len())
	}

	// A tier warmed by an ample-budget solve answers every piece of the
	// 1 ns run with the stored proven colors.
	tier := freshTier()
	ample := tierRun(t, dg, Options{K: 4, Algorithm: AlgILP, ILPTimeLimit: time.Minute}, tier)
	res := tierRun(t, dg, budget, tier)
	if !ample.Proven || !res.Proven || res.DivisionStats.Shapes.Hits != res.DivisionStats.SolverCalls {
		t.Fatalf("tier hit under a 1ns budget: proven %v (ample %v), shapes %+v over %d solver calls",
			res.Proven, ample.Proven, res.DivisionStats.Shapes, res.DivisionStats.SolverCalls)
	}
	if !slices.Equal(res.Colors, ample.Colors) {
		t.Fatal("tier hit under a 1ns budget changed the colors")
	}
}

// TestILPClockCutNotKept: an ILP solve cut short by ILPTimeLimit depends
// on the clock, so the dispatcher never offers it to the shape tier
// (node-capped SDP+Backtrack is: TestAutoBestOfCappedBacktrack).
func TestILPClockCutNotKept(t *testing.T) {
	g := randomPiece(1, 14) // ILP proves it in ~0.1 s; the budget stops it first
	opts := Options{K: 4, Algorithm: AlgILP, ILPTimeLimit: 2 * time.Millisecond}.withDefaults()
	p := makeSolver(context.Background(), opts, pipeline.Env{})(g, nil)
	if p.engine != "ILP" || !p.unproven {
		t.Fatalf("a 2ms budget on a 14-vertex piece gave engine %s, unproven %v; want a cut-short ILP solve", p.engine, p.unproven)
	}
	if p.keep {
		t.Fatal("a cut-short ILP solve was offered to the shape tier")
	}
}

// TestILPBudgetStopsAtNextNode: the ILP budget is a context deadline the
// branch-and-bound search polls at every node, so a 20 ms budget on a
// 16-vertex piece returns within a few node LPs of the deadline (the search
// once checked its clock every 16 nodes and overran it by ~0.25 s here).
func TestILPBudgetStopsAtNextNode(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock bound; the race detector slows each node LP several-fold")
	}
	g := randomPiece(1, 16)
	opts := Options{K: 4, Algorithm: AlgILP, ILPTimeLimit: 20 * time.Millisecond}.withDefaults()
	start := time.Now()
	p := makeSolver(context.Background(), opts, pipeline.Env{})(g, nil)
	if elapsed := time.Since(start); elapsed >= 100*time.Millisecond {
		t.Fatalf("a 20ms ILP budget took %v on a 16-vertex piece; want < 100ms", elapsed)
	}
	if p.engine != "ILP" || !p.unproven || p.keep {
		t.Fatalf("engine %s, unproven %v, keep %v; want an unkept cut-short ILP solve", p.engine, p.unproven, p.keep)
	}
}

func TestParseAlgorithm(t *testing.T) {
	for s, want := range map[string]Algorithm{
		"ilp": AlgILP, "sdp": AlgSDPBacktrack, "sdp-backtrack": AlgSDPBacktrack,
		"backtrack": AlgSDPBacktrack, "sdp-greedy": AlgSDPGreedy,
		"greedy": AlgSDPGreedy, "linear": AlgLinear,
	} {
		got, err := ParseAlgorithm(s)
		if err != nil || got != want {
			t.Fatalf("ParseAlgorithm(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseAlgorithm("magic"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestAlgorithmString(t *testing.T) {
	names := map[Algorithm]string{
		AlgILP: "ILP", AlgSDPBacktrack: "SDP+Backtrack",
		AlgSDPGreedy: "SDP+Greedy", AlgLinear: "Linear",
	}
	for a, want := range names {
		if a.String() != want {
			t.Fatalf("%d.String() = %q", int(a), a.String())
		}
	}
	if Algorithm(9).String() == "" {
		t.Fatal("unknown algorithm has empty name")
	}
}

func TestPentuplePatterning(t *testing.T) {
	// Section 5 generality: a K6 clique needs one conflict under K=5 and
	// none under K=6.
	l := layout.New("k6")
	pts := []geom.Point{{X: 0, Y: 0}, {X: 40, Y: 0}, {X: 80, Y: 0}, {X: 0, Y: 40}, {X: 40, Y: 40}, {X: 80, Y: 40}}
	for _, p := range pts {
		l.AddRect(geom.Rect{X0: p.X, Y0: p.Y, X1: p.X + 20, Y1: p.Y + 20})
	}
	// With MinS=110 (pentuple distance) all 6 contacts are mutually close.
	for _, tc := range []struct{ k, want int }{{5, 1}, {6, 0}} {
		res, err := Decompose(l, Options{K: tc.k, Algorithm: AlgSDPBacktrack, Build: BuildOptions{MinS: 110}, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		if res.Conflicts != tc.want {
			t.Fatalf("K=%d: conflicts = %d, want %d", tc.k, res.Conflicts, tc.want)
		}
	}
}

func TestBalanceMasksInvariant(t *testing.T) {
	l := layout.New("balance")
	// Several disjoint contact pairs: lots of rotation freedom.
	for i := 0; i < 12; i++ {
		l.AddRect(geom.Rect{X0: i * 300, Y0: 0, X1: i*300 + 20, Y1: 20})
		l.AddRect(geom.Rect{X0: i*300 + 40, Y0: 0, X1: i*300 + 60, Y1: 20})
	}
	res, err := Decompose(l, Options{K: 4, Algorithm: AlgLinear})
	if err != nil {
		t.Fatal(err)
	}
	c0, s0 := res.Conflicts, res.Stitches
	before, after := BalanceMasks(res)
	if after > before+1e-12 {
		t.Fatalf("spread worsened: %v -> %v", before, after)
	}
	conf, stit, err := VerifySolution(res)
	if err != nil {
		t.Fatal(err)
	}
	if conf != c0 || stit != s0 {
		t.Fatalf("balancing changed cost: %d/%d -> %d/%d", c0, s0, conf, stit)
	}
	// Linear colors everything greedily toward low indices, so the
	// unbalanced input must actually improve here.
	if after >= before && before > 0 {
		t.Fatalf("no improvement: %v -> %v", before, after)
	}
}

func TestWorkersMatchSerialOnBenchmark(t *testing.T) {
	l := layout.New("par")
	for i := 0; i < 10; i++ {
		ox := i * 600
		for _, p := range []geom.Point{{X: ox, Y: 0}, {X: ox + 40, Y: 0}, {X: ox, Y: 40}, {X: ox + 40, Y: 40}} {
			l.AddRect(geom.Rect{X0: p.X, Y0: p.Y, X1: p.X + 20, Y1: p.Y + 20})
		}
	}
	serial, err := Decompose(l, Options{K: 4, Algorithm: AlgSDPBacktrack, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Decompose(l, Options{
		K: 4, Algorithm: AlgSDPBacktrack, Seed: 2,
		Division: division.Options{Workers: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.Colors {
		if serial.Colors[i] != par.Colors[i] {
			t.Fatalf("fragment %d: serial %d, parallel %d", i, serial.Colors[i], par.Colors[i])
		}
	}
	if serial.Conflicts != par.Conflicts || serial.Stitches != par.Stitches {
		t.Fatalf("cost mismatch: %d/%d vs %d/%d",
			serial.Conflicts, serial.Stitches, par.Conflicts, par.Stitches)
	}
}

func TestConflictBoundCertifiesHeuristics(t *testing.T) {
	// On a layout whose conflicts all come from K5 crosses, the clique
	// packing bound certifies the linear engine's conflict count as
	// optimal — no ILP needed.
	l := layout.New("cert")
	for c := 0; c < 4; c++ {
		ox := c * 1000
		for _, d := range []geom.Point{{X: 0, Y: 0}, {X: 40, Y: 0}, {X: -40, Y: 0}, {X: 0, Y: 40}, {X: 0, Y: -40}} {
			l.AddRect(geom.Rect{X0: ox + d.X, Y0: d.Y, X1: ox + d.X + 20, Y1: d.Y + 20})
		}
	}
	dg, err := BuildGraph(l, BuildOptions{MinS: 60})
	if err != nil {
		t.Fatal(err)
	}
	res, err := DecomposeGraph(dg, Options{K: 4, Algorithm: AlgLinear, Build: BuildOptions{MinS: 60}})
	if err != nil {
		t.Fatal(err)
	}
	lb := bound.MinConflicts(dg.G, 4)
	if lb != 4 {
		t.Fatalf("lower bound = %d, want 4", lb)
	}
	if res.Conflicts != lb {
		t.Fatalf("linear conflicts %d != certified optimum %d", res.Conflicts, lb)
	}
}
