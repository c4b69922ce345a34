package core

// BenchmarkFullchipSolve measures one fresh full-chip request in the
// servebench fullchip steady state: a seeded S38417 layout, K = 4,
// auto, two build and two division workers, with the process-wide
// shape tier already warm, so nearly every solver piece is a tier hit
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
	"mpl/internal/layout"
	"mpl/internal/synth"
)

// fullchipRequest returns the seeded S38417 layout and options of one
// fullchip request, after one warm-up solve has filled the shape tier and
// the scratch pools.
func fullchipRequest(tb testing.TB) (*layout.Layout, Options) {
	spec, _ := synth.ByName("S38417")
	l := synth.GenerateSeeded(spec, 1, 1)
	opts := Options{K: 4, Engine: EngineAuto,
		Build: BuildOptions{Workers: 2}, Division: division.Options{Workers: 2}}
	if _, err := DecomposeContext(context.Background(), l, opts); err != nil {
		tb.Fatal(err)
	}
	return l, opts
}

func BenchmarkFullchipSolve(b *testing.B) {
	l, opts := fullchipRequest(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecomposeContext(ctx, l, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFullchipSolveAllocsBounded keeps the fresh build allocating per
// stage or join strip, not per fragment or rectangle, and the divide
// allocating per core piece, not per component: a warm fullchip solve
// makes ~9.7k allocations. The ceiling leaves room for those to drift, not for a
// per-component list or copy (S38417 has ~2.6k components, each worth one
// or more allocations) or a per-feature allocation (~80k features) to
// return.
func TestFullchipSolveAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled buffers under -race, so the count is not the production one")
	}
	const ceiling = 15_000
	l, opts := fullchipRequest(t)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := DecomposeContext(ctx, l, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Fatalf("warm S38417 solve made %.0f allocations, ceiling %d", allocs, ceiling)
	}
}
