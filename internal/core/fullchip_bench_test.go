package core

// BenchmarkFullchipSolve measures one fresh full-chip request in the
// servebench fullchip steady state: a seeded S38417 layout, K = 4,
// auto+memo, two build and two division workers, with the process-wide
// shape cache already warm, so nearly every solver piece is a cache hit
// and the cost is build plus per-piece overhead. Run with
//
//	go test -run '^$' -bench BenchmarkFullchipSolve -benchmem ./internal/core
//
// CI's bench-smoke job publishes its allocs/op next to the other
// allocation benchmarks.

import (
	"context"
	"testing"

	"mpl/internal/division"
	"mpl/internal/synth"
)

func BenchmarkFullchipSolve(b *testing.B) {
	spec, _ := synth.ByName("S38417")
	l := synth.GenerateSeeded(spec, 1, 1)
	opts := Options{K: 4, Engine: EngineAuto, Memoize: true,
		Build: BuildOptions{Workers: 2}, Division: division.Options{Workers: 2}}
	ctx := context.Background()
	// One warm-up solve fills the shape cache and the scratch pools.
	if _, err := DecomposeContext(ctx, l, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecomposeContext(ctx, l, opts); err != nil {
			b.Fatal(err)
		}
	}
}
