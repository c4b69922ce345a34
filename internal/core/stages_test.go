package core

// Stage-telemetry contract tests: every solve path must report the stages
// it actually ran in Result.DivisionStats.Stages, under the canonical
// pipeline.Stage* names, each timed by exactly one clock (the build stage
// is the builder's own). Behavior is pinned separately by the golden,
// incremental, and portfolio suites.

import (
	"context"
	"fmt"
	"testing"

	"mpl/internal/division"
	"mpl/internal/geom"
	"mpl/internal/layout"
	"mpl/internal/pipeline"
	"mpl/internal/synth"
)

// stageTestLayout returns a layout whose graph has unpeelable cores (K5
// crosses survive the Simplify stage), so the Dispatch stage actually runs.
func stageTestLayout(t testing.TB) (*layout.Layout, *Graph) {
	t.Helper()
	l, err := synth.GenerateByName("C432", 0.4)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGraph(l, BuildOptions{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	return l, g
}

func TestDecomposeContextReportsAllStages(t *testing.T) {
	l, _ := stageTestLayout(t)
	res, err := DecomposeContext(context.Background(), l, Options{K: 4, Algorithm: AlgLinear})
	if err != nil {
		t.Fatal(err)
	}
	st := res.DivisionStats.Stages
	for _, name := range pipeline.StageNames {
		if st[name].Calls == 0 {
			t.Errorf("full solve did not record stage %q: %+v", name, st)
		}
	}
	if got := st[pipeline.StageDispatch].Calls; got != res.DivisionStats.SolverCalls+res.DivisionStats.Fallbacks {
		t.Errorf("dispatch calls = %d, want %d solver calls + fallbacks", got, res.DivisionStats.SolverCalls+res.DivisionStats.Fallbacks)
	}
	if res.AssignTime <= 0 || st[pipeline.StageBuild].Wall <= 0 {
		t.Errorf("timings missing: assign=%v build=%v", res.AssignTime, st[pipeline.StageBuild].Wall)
	}
	// One clock per stage: the build stage is the builder's own timer, and
	// build and merge are each one region.
	if got, want := st[pipeline.StageBuild].Wall, res.Graph.Stats.Timing.Total; got != want {
		t.Errorf("build stage wall = %v, builder clock = %v", got, want)
	}
	for _, name := range []string{pipeline.StageBuild, pipeline.StageMerge} {
		if got := st[name].Calls; got != 1 {
			t.Errorf("stage %q calls = %d, want 1", name, got)
		}
	}
}

func TestDecomposeGraphOmitsBuildStage(t *testing.T) {
	// DecomposeGraph* colors a graph somebody else built (possibly cached
	// and amortized over many solves); charging that build to this call
	// would double-count it, so only the stages the call ran may appear.
	_, g := stageTestLayout(t)
	res, err := DecomposeGraph(g, Options{K: 4, Algorithm: AlgLinear})
	if err != nil {
		t.Fatal(err)
	}
	st := res.DivisionStats.Stages
	if _, ok := st[pipeline.StageBuild]; ok {
		t.Errorf("graph-input solve must not report a build stage: %+v", st)
	}
	for _, name := range []string{pipeline.StagePartition, pipeline.StageDispatch, pipeline.StageMerge} {
		if st[name].Calls == 0 {
			t.Errorf("stage %q missing: %+v", name, st)
		}
	}
}

func TestApplyEditsReportsIncrementalStages(t *testing.T) {
	l := synth.Random(3)
	opts := Options{K: 4, Algorithm: AlgLinear}
	res, err := Decompose(l, opts)
	if err != nil {
		t.Fatal(err)
	}
	b := l.Bounds()
	newL, res2, es, err := ApplyEdits(context.Background(), l, res, []Edit{
		{Op: EditAdd, Shape: geom.NewPolygon(geom.Rect{X0: b.X1 + 100, Y0: b.Y0, X1: b.X1 + 120, Y1: b.Y0 + 20})},
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if newL == nil || es == nil {
		t.Fatal("missing outputs")
	}
	st := res2.DivisionStats.Stages
	for _, name := range []string{pipeline.StageBuild, pipeline.StagePartition, pipeline.StageMerge} {
		if st[name].Calls == 0 {
			t.Errorf("incremental solve did not record stage %q: %+v", name, st)
		}
	}
	// The edit adds an isolated feature far from everything: its one-vertex
	// component is fully peeled, so the Simplify stage must appear while
	// Dispatch legitimately may not (nothing survived simplification).
	if es.ResolvedComponents == 0 {
		t.Fatalf("expected the added feature to form a dirty component: %+v", es)
	}
	if st[pipeline.StageSimplify].Calls == 0 {
		t.Errorf("dirty component was re-solved but no simplify region recorded: %+v", st)
	}
	// One clock per stage: the build stage is the dirty-region rebuild's
	// own timer, and build and merge are each one region.
	if got := st[pipeline.StageBuild].Wall; got != es.BuildTime || got != res2.Graph.Stats.Timing.Total {
		t.Errorf("build stage wall = %v, rebuild clock = %v, graph timing = %v", got, es.BuildTime, res2.Graph.Stats.Timing.Total)
	}
	for _, name := range []string{pipeline.StageBuild, pipeline.StageMerge} {
		if got := st[name].Calls; got != 1 {
			t.Errorf("stage %q calls = %d, want 1", name, got)
		}
	}
}

func TestStagesIdenticalStructureAcrossWorkers(t *testing.T) {
	// The stage *structure* (region counts) is deterministic at any worker
	// count; only wall times vary. This pins the parallel merge path.
	_, g := stageTestLayout(t)
	base, err := DecomposeGraph(g, Options{K: 4, Algorithm: AlgLinear})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		opts := Options{K: 4, Algorithm: AlgLinear}
		opts.Division.Workers = workers
		res, err := DecomposeGraph(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.DivisionStats.Stages) != len(base.DivisionStats.Stages) {
			t.Fatalf("workers=%d: stage set %v != serial %v", workers, res.DivisionStats.Stages, base.DivisionStats.Stages)
		}
		for name, want := range base.DivisionStats.Stages {
			if got := res.DivisionStats.Stages[name]; got.Calls != want.Calls {
				t.Errorf("workers=%d: stage %q calls = %d, serial %d", workers, name, got.Calls, want.Calls)
			}
		}
	}
}

// TestDispatchTallySingleOwner pins that every dispatch fact has one
// owner: each dispatched piece lands in exactly one engine bucket (so the
// histogram sums to solver calls plus fallbacks), and SolverTime is the
// Dispatch stage's own clock, on the scratch and the ECO path alike, for
// a fixed engine and auto, under a live and a pre-cancelled context (every
// piece a fallback).
func TestDispatchTallySingleOwner(t *testing.T) {
	l, err := synth.GenerateByName("C432", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGraph(l, BuildOptions{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	check := func(t *testing.T, path string, res *Result, cancelled bool) {
		t.Helper()
		ds := res.DivisionStats
		sum := 0
		for _, n := range ds.Engines {
			sum += n
		}
		if sum != ds.SolverCalls+ds.Fallbacks || sum == 0 {
			t.Errorf("%s: engines %v sum to %d, want solver calls %d + fallbacks %d (> 0)", path, ds.Engines, sum, ds.SolverCalls, ds.Fallbacks)
		}
		if cancelled && (ds.SolverCalls != 0 || ds.Engines["fallback"] != sum) {
			t.Errorf("%s: a dead context dispatched %d solver calls, engines %v; want all fallbacks", path, ds.SolverCalls, ds.Engines)
		}
		if got, want := res.SolverTime, ds.Stages[pipeline.StageDispatch].Wall; got != want {
			t.Errorf("%s: SolverTime %v != dispatch stage wall %v", path, got, want)
		}
	}
	// Two division workers, so the race detector sees the dispatch tally
	// written concurrently.
	fixed := Options{K: 4, Algorithm: AlgSDPBacktrack, Division: division.Options{Workers: 2}}
	auto := Options{K: 4, Engine: EngineAuto, Division: division.Options{Workers: 2}}
	for _, c := range []struct {
		name string
		opts Options
	}{{"fixed", fixed}, {"auto", auto}} {
		opts := c.opts
		prev, err := DecomposeGraph(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, ctx := range []context.Context{context.Background(), dead} {
			cancelled := ctx.Err() != nil
			t.Run(fmt.Sprintf("%s/cancelled=%v", c.name, cancelled), func(t *testing.T) {
				res, err := DecomposeGraphContext(ctx, g, opts)
				if err != nil {
					t.Fatal(err)
				}
				check(t, "DecomposeGraph", res, cancelled)
				// Removing a macro-region feature re-solves a dense component.
				_, inc, _, err := ApplyEdits(ctx, l, prev, []Edit{{Op: EditRemove, Feature: 3}}, opts)
				if err != nil {
					t.Fatal(err)
				}
				check(t, "ApplyEdits", inc, cancelled)
			})
		}
	}
}
