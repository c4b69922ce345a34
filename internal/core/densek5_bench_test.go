package core

// BenchmarkDenseK5Solve measures the servebench dense-k5 shape in
// process: a fixed set of seeded C6288 layouts, K = 5, fixed
// SDP+Backtrack, two build and two division workers, solved in order
// through one fresh shape tier per op. Most engine-solved pieces hit the
// backtracking node cap, so the cost is SDP plus capped search, less
// whatever the tier replays of pieces an earlier layout of the same op
// already solved: hits/op counts those, out of pieces/op. Run with
//
//	go test -run '^$' -bench BenchmarkDenseK5Solve -benchmem -benchtime 3x ./internal/core
//
// CI's bench-smoke job publishes it with the dispatch benchmarks.

import (
	"context"
	"testing"

	"mpl/internal/division"
	"mpl/internal/layout"
	"mpl/internal/synth"
)

// denseK5Layouts is the number of seeded C6288 layouts one op solves.
const denseK5Layouts = 48

func BenchmarkDenseK5Solve(b *testing.B) {
	spec, _ := synth.ByName("C6288")
	layouts := make([]*layout.Layout, denseK5Layouts)
	for i := range layouts {
		layouts[i] = synth.GenerateSeeded(spec, 1, int64(i+1))
	}
	opts := Options{K: 5, Algorithm: AlgSDPBacktrack,
		Build: BuildOptions{Workers: 2}, Division: division.Options{Workers: 2}}.withDefaults()
	ctx := context.Background()
	var hits, calls int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shapes := freshTier()
		for _, l := range layouts {
			dg, err := BuildGraph(l, opts.Build)
			if err != nil {
				b.Fatal(err)
			}
			res, err := decomposeGraph(ctx, dg, opts, true, sharedScratch, shapes)
			if err != nil {
				b.Fatal(err)
			}
			hits += res.DivisionStats.Shapes.Hits
			calls += res.DivisionStats.SolverCalls
		}
	}
	b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
	b.ReportMetric(float64(calls)/float64(b.N), "pieces/op")
}
