package core

// BenchmarkApplyEdits measures the ECO path on the served configuration:
// the committed-size C7552 layout (scale 1), K = 4, SDP+Backtrack, two
// division workers, and seeded 1–3-op edit batches of the serving
// benchmark's shape, each applied to the same decomposed base. Run with
//
//	go test -run '^$' -bench BenchmarkApplyEdits -benchmem ./internal/core
//
// Besides ns/op it reports build-ns/op, the dirty-region graph rebuild
// alone (EditStats.BuildTime), so the rebuild shows apart from the
// division. CI's bench-smoke job publishes it next to BenchmarkRepeatedSolve
// and BenchmarkRepeatedBuild, so a regression in ECO time or allocations
// shows on every change; TestApplyEditsAllocsBounded fails the build when
// its allocations start to grow with the chip.

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"mpl/internal/division"
	"mpl/internal/layout"
	"mpl/internal/synth"
)

// ecoBatches returns the benchmark's C7552 layout, options and decomposed
// base, and its 64 seeded edit batches, after one warm-up pass over them so
// the scratch pools are at steady state.
func ecoBatches(tb testing.TB) (*layout.Layout, *Result, [][]Edit, Options) {
	l, err := synth.GenerateByName("C7552", 1.0)
	if err != nil {
		tb.Fatal(err)
	}
	opts := Options{K: 4, Algorithm: AlgSDPBacktrack, Seed: 1, Division: division.Options{Workers: 2}}
	base, err := Decompose(l, opts)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	batches := make([][]Edit, 64)
	for i := range batches {
		batches[i] = randomEdits(rng, l)
	}
	for _, edits := range batches {
		if _, _, _, err := ApplyEdits(context.Background(), l, base, edits, opts); err != nil {
			tb.Fatal(err)
		}
	}
	return l, base, batches, opts
}

func BenchmarkApplyEdits(b *testing.B) {
	l, base, batches, opts := ecoBatches(b)
	ctx := context.Background()
	var build time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, es, err := ApplyEdits(ctx, l, base, batches[i%len(batches)], opts)
		if err != nil {
			b.Fatal(err)
		}
		build += es.BuildTime
	}
	b.ReportMetric(float64(build.Nanoseconds())/float64(b.N), "build-ns/op")
}

// TestApplyEditsAllocsBounded keeps an ECO batch allocating per call, not
// per fragment or edge: BenchmarkApplyEdits' batches make ~335 allocations
// each on a C7552 graph of 8.6k fragments and 14k edges, so the ceiling
// leaves room for drift but fails on any per-row allocation.
func TestApplyEditsAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled buffers under -race, so the count is not the production one")
	}
	const ceiling = 500
	l, base, batches, opts := ecoBatches(t)
	ctx := context.Background()
	i := 0
	allocs := testing.AllocsPerRun(len(batches), func() {
		if _, _, _, err := ApplyEdits(ctx, l, base, batches[i%len(batches)], opts); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("%.0f allocations per ECO batch", allocs)
	if allocs > ceiling {
		t.Fatalf("an ECO batch on C7552 made %.0f allocations on average, ceiling %d", allocs, ceiling)
	}
}
