package service

// Service-layer behavior of the adaptive engine policies: the cache must
// key on Options.Engine (an auto result is not a fixed-algorithm result),
// and executed solves must aggregate their per-engine dispatch histograms
// into the service stats.

import (
	"context"
	"fmt"
	"maps"
	"testing"

	"mpl/internal/core"
	"mpl/internal/division"
	"mpl/internal/pipeline"
)

func TestEngineDistinguishesCacheKeys(t *testing.T) {
	svc := New(Config{})
	ctx := context.Background()
	l := denseRow("engine-key", 12)

	fixed := core.Options{K: 4, Algorithm: core.AlgSDPBacktrack}
	auto := core.Options{K: 4, Algorithm: core.AlgSDPBacktrack, Engine: core.EngineAuto}

	if _, cached, err := svc.Decompose(ctx, l, fixed); err != nil || cached {
		t.Fatalf("first fixed solve: cached=%v err=%v", cached, err)
	}
	if _, cached, err := svc.Decompose(ctx, l, auto); err != nil || cached {
		t.Fatalf("auto must not reuse the fixed-engine entry: cached=%v err=%v", cached, err)
	}
	if _, cached, err := svc.Decompose(ctx, l, auto); err != nil || !cached {
		t.Fatalf("identical auto request must hit the cache: cached=%v err=%v", cached, err)
	}
	// Auto never reads Algorithm, so spellings differing only in that
	// ignored field must share the entry (and the incremental session).
	autoOtherAlg := core.Options{K: 4, Algorithm: core.AlgLinear, Engine: core.EngineAuto}
	if _, cached, err := svc.Decompose(ctx, l, autoOtherAlg); err != nil || !cached {
		t.Fatalf("auto with a different (ignored) Algorithm must still hit the cache: cached=%v err=%v", cached, err)
	}
	// Auto is deterministic, so cache-served and solved results agree.
	r1, _, err := svc.Decompose(ctx, l, auto)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := core.Decompose(l, auto)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Conflicts != r2.Conflicts || r1.Stitches != r2.Stitches {
		t.Fatalf("cached auto result %d/%d differs from direct solve %d/%d", r1.Conflicts, r1.Stitches, r2.Conflicts, r2.Stitches)
	}
}

func TestStatsAggregateEngineHistograms(t *testing.T) {
	svc := New(Config{})
	ctx := context.Background()

	// Grids keep solver-reaching cores (rows peel away and would solve
	// nothing); two sizes so the two probes miss independently.
	if _, _, err := svc.Decompose(ctx, denseGrid(4), core.Options{K: 4, Engine: core.EngineAuto}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.Decompose(ctx, denseGrid(5), core.Options{K: 4, Algorithm: core.AlgLinear}); err != nil {
		t.Fatal(err)
	}
	st := svc.StatsSnapshot()
	if len(st.Engines) == 0 {
		t.Fatal("no engine histogram after two executed solves")
	}
	if st.Engines[core.AlgLinear.String()] == 0 {
		t.Fatalf("fixed Linear solve missing from histogram: %v", st.Engines)
	}
	total := 0
	for _, n := range st.Engines {
		total += n
	}

	// A cache hit solves nothing and must not move the histogram.
	if _, cached, err := svc.Decompose(ctx, denseGrid(5), core.Options{K: 4, Algorithm: core.AlgLinear}); err != nil || !cached {
		t.Fatalf("expected cache hit, cached=%v err=%v", cached, err)
	}
	st2 := svc.StatsSnapshot()
	total2 := 0
	for _, n := range st2.Engines {
		total2 += n
	}
	if total2 != total {
		t.Fatalf("cache hit moved the engine histogram: %d -> %d", total, total2)
	}

	// The snapshot owns its map: mutating it must not corrupt the service.
	st2.Engines["probe"] = 99
	if svc.StatsSnapshot().Engines["probe"] != 0 {
		t.Fatal("StatsSnapshot leaked its internal map")
	}
}

func TestStatsAggregateStageTelemetry(t *testing.T) {
	svc := New(Config{})
	ctx := context.Background()

	if _, _, err := svc.Decompose(ctx, denseGrid(4), core.Options{K: 4, Algorithm: core.AlgLinear}); err != nil {
		t.Fatal(err)
	}
	st := svc.StatsSnapshot()
	for _, name := range []string{pipeline.StageBuild, pipeline.StagePartition, pipeline.StageDispatch, pipeline.StageMerge} {
		if st.Stages[name].Calls == 0 {
			t.Errorf("aggregate missing stage %q after an executed solve: %+v", name, st.Stages)
		}
	}
	if st.Stages[pipeline.StageBuild].Calls != 1 {
		t.Errorf("exactly one graph build ran, aggregate says %+v", st.Stages[pipeline.StageBuild])
	}

	// A cache hit runs nothing — graph build included — so the stage
	// aggregate must not move.
	before := st.Stages
	if _, cached, err := svc.Decompose(ctx, denseGrid(4), core.Options{K: 4, Algorithm: core.AlgLinear}); err != nil || !cached {
		t.Fatalf("expected cache hit, cached=%v err=%v", cached, err)
	}
	after := svc.StatsSnapshot().Stages
	for name, want := range before {
		if got := after[name]; got.Calls != want.Calls {
			t.Errorf("cache hit moved stage %q: %d -> %d calls", name, want.Calls, got.Calls)
		}
	}

	// The same layout under different build-relevant options shares the
	// graph cache entry; the second solve must not re-record a build.
	if _, cached, err := svc.Decompose(ctx, denseGrid(4), core.Options{K: 4, Algorithm: core.AlgSDPGreedy}); err != nil || cached {
		t.Fatalf("different engine must miss the result cache: cached=%v err=%v", cached, err)
	}
	if got := svc.StatsSnapshot().Stages[pipeline.StageBuild].Calls; got != 1 {
		t.Errorf("graph-cache hit re-recorded a build: %d builds", got)
	}

	// Snapshot owns its map.
	snap := svc.StatsSnapshot()
	snap.Stages["probe"] = pipeline.StageStats{Calls: 99}
	if svc.StatsSnapshot().Stages["probe"].Calls != 0 {
		t.Fatal("StatsSnapshot leaked its internal stages map")
	}
}

// TestStatsAggregateEqualsResultFold pins the one fold rule under
// concurrency: after a batch over several distinct layouts at four
// workers, the aggregate's engine histogram, shape counters, non-build
// stages and balance equal division.Stats.Add over the results the
// service actually executed (cache-served responses add nothing).
func TestStatsAggregateEqualsResultFold(t *testing.T) {
	svc := New(Config{Workers: 4})
	var reqs []Request
	// Grids from 4×4 up route auto to SDP+Backtrack; the 3×3 grid's ILP
	// piece takes seconds under the race detector, where CI runs this.
	for n := 4; n <= 6; n++ {
		for _, opts := range []core.Options{{K: 4, Engine: core.EngineAuto}, {K: 4, Algorithm: core.AlgLinear}} {
			// Each request twice, so some responses are served from the
			// cache or from another request's in-flight solve.
			r := Request{Name: fmt.Sprintf("grid%d", n), Layout: denseGrid(n), Options: opts}
			reqs = append(reqs, r, r)
		}
	}
	var want division.Stats
	executed := 0
	for _, r := range svc.DecomposeAll(context.Background(), reqs) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Name, r.Err)
		}
		if !r.Cached {
			executed++
			want.Add(r.Result.DivisionStats)
		}
	}
	if executed < 6 {
		t.Fatalf("only %d executed solves for 6 distinct requests", executed)
	}
	got := svc.StatsSnapshot()
	if !maps.Equal(got.Engines, want.Engines) {
		t.Errorf("aggregate engines %v, fold of executed results %v", got.Engines, want.Engines)
	}
	if got.Shapes != want.Shapes {
		t.Errorf("aggregate shapes %+v, fold %+v", got.Shapes, want.Shapes)
	}
	if got.Balance != want.Balance {
		t.Errorf("aggregate balance %+v, fold %+v", got.Balance, want.Balance)
	}
	stages := maps.Clone(got.Stages)
	delete(stages, pipeline.StageBuild)
	if !maps.Equal(stages, want.Stages) {
		t.Errorf("aggregate stages %v, fold %v", stages, want.Stages)
	}
}
