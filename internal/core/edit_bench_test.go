package core

// BenchmarkApplyEdits measures the ECO path on the served configuration:
// the committed-size C7552 layout (scale 1), K = 4, SDP+Backtrack, two
// division workers, and seeded 1–3-op edit batches of the serving
// benchmark's shape, each applied to the same decomposed base. Run with
//
//	go test -run '^$' -bench BenchmarkApplyEdits -benchmem ./internal/core
//
// CI's bench-smoke job publishes it next to BenchmarkRepeatedSolve and
// BenchmarkRepeatedBuild, so a regression in ECO time or allocations shows
// on every change.

import (
	"context"
	"math/rand"
	"testing"

	"mpl/internal/division"
	"mpl/internal/synth"
)

func BenchmarkApplyEdits(b *testing.B) {
	l, err := synth.GenerateByName("C7552", 1.0)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{K: 4, Algorithm: AlgSDPBacktrack, Seed: 1, Division: division.Options{Workers: 2}}
	base, err := Decompose(l, opts)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	batches := make([][]Edit, 64)
	for i := range batches {
		batches[i] = randomEdits(rng, l)
	}
	ctx := context.Background()
	// One warm-up pass so the scratch pools are at steady state.
	for _, edits := range batches {
		if _, _, _, err := ApplyEdits(ctx, l, base, edits, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := ApplyEdits(ctx, l, base, batches[i%len(batches)], opts); err != nil {
			b.Fatal(err)
		}
	}
}
