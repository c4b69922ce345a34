package core

// Integration tests for the adaptive engine portfolio: auto/race dispatch
// through the full division pipeline, race-loser cancellation hygiene
// (no goroutine leaks), deadline degradation, and the ECO path under auto.

import (
	"context"
	"runtime"
	"slices"
	"testing"
	"time"

	"mpl/internal/coloring"
	"mpl/internal/geom"
	"mpl/internal/layout"
)

// crossesLayout builds two K5 cross clusters plus a sparse row: every piece
// reaching the solver is a 5-vertex cross whose optimal cost is 1 conflict
// at K=4 — never 0 — so a race between ILP (primary at this size) and
// SDP+Backtrack always ends in a cost tie broken toward the primary. That
// makes race-mode winners provably identical to auto mode's selections,
// the setup the byte-equivalence test needs.
func crossesLayout() *layout.Layout {
	l := layout.New("crosses")
	cross := func(cx, cy int) {
		for _, d := range [][2]int{{0, 0}, {40, 0}, {-40, 0}, {0, 40}, {0, -40}} {
			l.AddRect(geom.Rect{X0: cx + d[0], Y0: cy + d[1], X1: cx + d[0] + 20, Y1: cy + d[1] + 20})
		}
	}
	cross(0, 0)
	cross(1000, 0)
	for i := 0; i < 6; i++ {
		l.AddRect(geom.Rect{X0: i * 300, Y0: 600, X1: i*300 + 20, Y1: 620})
	}
	return l
}

func TestRaceByteEquivalentToAutoOnIdenticalWinners(t *testing.T) {
	l := crossesLayout()
	g, err := BuildGraph(l, BuildOptions{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	auto, err := DecomposeGraph(g, Options{K: 4, Engine: EngineAuto, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	race, err := DecomposeGraph(g, Options{K: 4, Engine: EngineRace, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Same winners (the tie-break sends every cross to the primary, which
	// is auto's selection) — so the colorings must be byte-identical.
	if len(auto.DivisionStats.Engines) == 0 {
		t.Fatalf("auto recorded no engine dispatches: %+v", auto.DivisionStats)
	}
	for name, n := range auto.DivisionStats.Engines {
		if race.DivisionStats.Engines[name] != n {
			t.Fatalf("winner histograms differ: auto %v, race %v — the cost-tie break no longer prefers the primary",
				auto.DivisionStats.Engines, race.DivisionStats.Engines)
		}
	}
	if !slices.Equal(auto.Colors, race.Colors) {
		t.Errorf("race winners match auto's selections but the colors differ")
	}
	if auto.Conflicts != 2 {
		t.Errorf("two K5 crosses at K=4 must cost exactly 2 conflicts, got %d", auto.Conflicts)
	}
}

func TestRaceLeaksNoGoroutines(t *testing.T) {
	l := crossesLayout()
	g, err := BuildGraph(l, BuildOptions{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Warm-up: one run so lazily started runtime helpers don't count.
	if _, err := DecomposeGraph(g, Options{K: 4, Engine: EngineRace, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		res, err := DecomposeGraph(g, Options{K: 4, Engine: EngineRace, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := coloring.Validate(res.Graph.G, res.Colors, 4); err != nil {
			t.Fatal(err)
		}
	}
	// Cancelled losers exit at their next checkpoint; give them a moment,
	// then require the count back at (or below) the baseline. A small
	// tolerance absorbs unrelated runtime goroutines, not race losers —
	// 8 runs × several pieces × 1 loser each would blow well past it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d five seconds after 8 race runs — race losers are leaking",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRace1msDeadlineStillReturnsValidResult(t *testing.T) {
	l := fuzzBaseLayout()
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := DecomposeContext(ctx, l, Options{K: 4, Engine: EngineRace, Seed: 1})
	if err != nil {
		t.Fatalf("a dead deadline must degrade, not fail: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("1ms-deadline race took %v; cancellation is not propagating", elapsed)
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

func TestRaceTinyBudgetDegradesGracefully(t *testing.T) {
	l := fuzzBaseLayout()
	// A 1ns budget expires before either racer reaches its first
	// checkpoint: both return incumbents, the better one is kept, and the
	// result stays a complete valid coloring (the engines' contract).
	res, err := Decompose(l, Options{K: 4, Engine: EngineRace, Seed: 1, RaceBudget: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := coloring.Validate(res.Graph.G, res.Colors, 4); err != nil {
		t.Fatal(err)
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
