package core

// Integration tests for the adaptive engine portfolio: auto dispatch
// through the full division pipeline, its best-of over node-capped
// SDP+Backtrack pieces, deadline degradation, and the ECO path under auto.

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"time"

	"mpl/internal/coloring"
	"mpl/internal/geom"
	"mpl/internal/graph"
	"mpl/internal/pipeline"
	"mpl/internal/portfolio"
)

func TestAuto1msDeadlineStillReturnsValidResult(t *testing.T) {
	l := fuzzBaseLayout()
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := DecomposeContext(ctx, l, Options{K: 4, Engine: EngineAuto, Seed: 1})
	if err != nil {
		t.Fatalf("a dead deadline must degrade, not fail: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("1ms-deadline auto took %v; cancellation is not propagating", elapsed)
	}
	if err := coloring.Validate(res.Graph.G, res.Colors, 4); err != nil {
		t.Fatalf("degraded result must still be a valid coloring: %v", err)
	}
	conf, stit, err := VerifySolution(res)
	if err != nil {
		t.Fatal(err)
	}
	if conf != res.Conflicts || stit != res.Stitches {
		t.Fatalf("degraded result recount %d/%d disagrees with reported %d/%d", conf, stit, res.Conflicts, res.Stitches)
	}
	if res.Degraded > 0 && res.Proven {
		t.Fatal("a degraded result cannot claim to be proven")
	}
}

func TestUnknownEngineRejected(t *testing.T) {
	l := fuzzBaseLayout()
	prev, err := Decompose(l, Options{K: 4, Algorithm: AlgLinear})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Options{
		{K: 4, Engine: "bogus"},
		{K: 4, Engine: "race"}, // the deleted race policy is a rejected value, not an alias
		{K: 4, Algorithm: Algorithm(7)},
		{K: 4, Algorithm: Algorithm(-1)},
	} {
		if _, err := Decompose(l, bad); err == nil {
			t.Errorf("Decompose must reject %+v", bad)
		}
		if _, _, _, err := ApplyEdits(context.Background(), l, prev, []Edit{{Op: EditRemove, Feature: 0}}, bad); err == nil {
			t.Errorf("ApplyEdits must reject %+v", bad)
		}
	}
}

func TestApplyEditsAutoMatchesScratch(t *testing.T) {
	// The ECO path under the auto policy: auto is deterministic (structural
	// selection + deterministic engines), so incremental results must still
	// be byte-equivalent to a from-scratch auto run of the edited layout.
	base := fuzzBaseLayout()
	opts := Options{K: 4, Engine: EngineAuto, Seed: 1}
	prev, err := Decompose(base, opts)
	if err != nil {
		t.Fatal(err)
	}
	edits := []Edit{
		{Op: EditMove, Feature: 16, DX: 40},
		{Op: EditAdd, Shape: geom.NewPolygon(geom.Rect{X0: 60, Y0: 220, X1: 80, Y1: 240})},
	}
	newL, inc, _, err := ApplyEdits(context.Background(), base, prev, edits, opts)
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := Decompose(newL, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, 4, inc, scratch)
}

// TestAutoBestOfCappedBacktrack pins auto's per-piece best-of: a
// node-capped SDP+Backtrack solve is answered by Linear exactly when
// Linear's cost is strictly lower, a tie keeps SDP+Backtrack, and either
// way the piece stays unproven and is never offered to the shape tier.
func TestAutoBestOfCappedBacktrack(t *testing.T) {
	defer func(n int64) { backtrackNodeLimit = n }(backtrackNodeLimit)
	backtrackNodeLimit = 1
	opts := Options{K: 4, Seed: 1}.withDefaults()
	env := pipeline.Env{}
	auto := opts
	auto.Engine = EngineAuto
	solver := makeSolver(context.Background(), auto, env)
	fixed := opts
	fixed.Algorithm = AlgSDPBacktrack
	backtrack := makeSolver(context.Background(), fixed, env)
	outcomes := map[string]int{}
	for seed := int64(1); seed <= 40; seed++ {
		g := randomPiece(seed, 24)
		if portfolio.Select(portfolio.Analyze(g)) != portfolio.SDPBacktrack {
			t.Fatalf("seed %d: piece does not route to SDP+Backtrack", seed)
		}
		fp := backtrack(g, nil)
		bt := fp.colors
		if !fp.unproven {
			t.Fatalf("seed %d: a 1-node cap reported proven", seed)
		}
		lin := coloring.Linear(g, coloring.LinearOptions{K: opts.K, Alpha: opts.Alpha})
		p := solver(g, nil)
		want, wantEngine := bt, portfolio.SDPBacktrack.String()
		if coloring.Cost(g, lin, opts.Alpha) < coloring.Cost(g, bt, opts.Alpha) {
			want, wantEngine = lin, portfolio.Linear.String()
		}
		if p.engine != wantEngine || !slices.Equal(p.colors, want) {
			t.Fatalf("seed %d: auto kept %s, want %s (SDP+Backtrack cost %v, Linear cost %v)", seed, p.engine, wantEngine,
				coloring.Cost(g, bt, opts.Alpha), coloring.Cost(g, lin, opts.Alpha))
		}
		if !p.unproven || p.keep {
			t.Fatalf("seed %d: capped piece reported unproven=%v keep=%v", seed, p.unproven, p.keep)
		}
		outcomes[p.engine]++
	}
	t.Logf("outcomes %v", outcomes)
	if len(outcomes) != 2 {
		t.Fatalf("the sample exercised only %v; want both outcomes of the best-of", outcomes)
	}
}

// randomPiece is a seeded random piece of n vertices: conflict edges at
// density 0.3 plus a sparse stitch chain, so both cost terms matter.
func randomPiece(seed int64, n int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < 0.3 {
				b.AddConflict(u, v)
			} else if v == u+1 && rng.Float64() < 0.5 {
				b.AddStitch(u, v)
			}
		}
	}
	return b.Build(nil)
}
