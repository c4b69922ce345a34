package core

// Allocation benchmarks for the pooled scratch-buffer layer. Run with
//
//	go test -run '^$' -bench BenchmarkRepeatedSolve -benchmem ./internal/core
//
// The "pooled" variant is the production configuration (the process-wide
// sharedScratch pool); "unpooled" passes a nil pool, whose nil arenas
// allocate every buffer fresh — the allocation behavior of the code before
// the scratch layer existed — so the delta in allocs/op and B/op is the pooling win
// for a repeated-solve (steady-state serving) loop. CI's bench-smoke job
// publishes both lines in the workflow summary to make pooling
// regressions visible per PR (see EXPERIMENTS.md for recorded numbers).

import (
	"context"
	"testing"

	"mpl/internal/pipeline"
	"mpl/internal/synth"
)

func benchSolveGraph(b *testing.B) *Graph {
	b.Helper()
	l, err := synth.GenerateByName("C432", 0.5)
	if err != nil {
		b.Fatal(err)
	}
	g, err := BuildGraph(l, BuildOptions{K: 4})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func benchRepeatedSolve(b *testing.B, pool *pipeline.ScratchPool) {
	b.Helper()
	g := benchSolveGraph(b)
	opts := (Options{K: 4, Algorithm: AlgSDPBacktrack, Seed: 1}).withDefaults()
	solve := func() (*Result, error) {
		return decomposeGraph(context.Background(), g, opts, false, pool, sharedShapes)
	}
	// One warm-up solve so the pooled variant measures steady state (the
	// first request grows the arenas; every later one reuses them).
	if _, err := solve(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := solve()
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

func BenchmarkRepeatedSolve(b *testing.B) {
	b.Run("pooled", func(b *testing.B) { benchRepeatedSolve(b, pipeline.NewScratchPool()) })
	b.Run("unpooled", func(b *testing.B) { benchRepeatedSolve(b, nil) })
}

// BenchmarkRepeatedBuild measures the graph-construction path the serving
// layer pays on every cache-miss layout; the spatial visit-stamp pool
// keeps its steady-state allocations flat across requests.
func BenchmarkRepeatedBuild(b *testing.B) {
	l, err := synth.GenerateByName("C432", 0.5)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := BuildGraph(l, BuildOptions{K: 4}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildGraph(l, BuildOptions{K: 4}); err != nil {
			b.Fatal(err)
		}
	}
}
