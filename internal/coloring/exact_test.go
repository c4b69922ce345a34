package coloring

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
)

// diffAlphas are stitch weights for the kernel/reference comparison. Every
// one is a multiple of 0.05, so distinct costs C+α·S differ by at least
// 0.05 and the 1e-12 prune tolerance can never separate the kernel's exact
// tallies from the reference's accumulated float cost.
var diffAlphas = []float64{0, 0.05, 0.1, 0.3, 1}

// diffCaps straddle the ctx poll period (1023/1024/1025) and include the
// extremes: a one-node search and 0, the BacktrackNodeLimit default.
var diffCaps = []int64{1, 5, 1023, 1024, 1025, 30_000, 0}

// randomWeighted draws a merged-graph-like weighted graph: conflict density
// p with weights 1..3 and sparser stitches with weights 1..2, built through
// AddConflict/AddStitch so both adjacency lists stay symmetric.
func randomWeighted(rng *rand.Rand, n int, p float64) *Weighted {
	w := NewWeighted(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				w.AddConflict(u, v, 1+rng.Intn(3))
			}
			if rng.Float64() < p/3 {
				w.AddStitch(u, v, 1+rng.Intn(2))
			}
		}
	}
	return w
}

func checkMatchesReference(t *testing.T, ctx context.Context, w *Weighted, k int, alpha float64, nodeLimit int64) {
	t.Helper()
	want := w.backtrackReference(ctx, k, alpha, nodeLimit)
	got := w.BacktrackContext(ctx, k, alpha, nodeLimit)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("n=%d k=%d alpha=%v cap=%d:\nkernel    %+v\nreference %+v", w.NumV, k, alpha, nodeLimit, got, want)
	}
}

func TestBacktrackMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	trials := 120
	if testing.Short() {
		trials = 20
	}
	ctx := context.Background()
	for trial := 0; trial < trials; trial++ {
		n := rng.Intn(25)
		k := 2 + rng.Intn(5)
		w := randomWeighted(rng, n, 0.1+0.6*rng.Float64())
		for _, alpha := range diffAlphas {
			for _, nodeLimit := range diffCaps {
				if nodeLimit == 0 && n > 10 {
					continue // the default cap only where the walk stays short
				}
				checkMatchesReference(t, ctx, w, k, alpha, nodeLimit)
			}
		}
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	for _, n := range []int{1, 8, 24} {
		checkMatchesReference(t, cancelled, randomWeighted(rng, n, 0.5), 5, 0.1, 0)
	}
}

// decodeBacktrackInput turns fuzz bytes into a search instance: a header of
// vertex count (0–24), K (2–6), α (from diffAlphas) and cap (from diffCaps,
// with the default cap only on ≤ 10 vertices), then (u, v, kind|weight)
// triples that add conflict or stitch weight 1–4. Self-loops are allowed:
// both searches must ignore them.
func decodeBacktrackInput(data []byte) (w *Weighted, k int, alpha float64, nodeLimit int64, ok bool) {
	if len(data) < 4 {
		return nil, 0, 0, 0, false
	}
	n := int(data[0]) % 25
	k = 2 + int(data[1])%5
	alpha = diffAlphas[int(data[2])%len(diffAlphas)]
	nodeLimit = diffCaps[int(data[3])%len(diffCaps)]
	if nodeLimit == 0 && n > 10 {
		nodeLimit = 30_000
	}
	w = NewWeighted(n)
	for rest := data[4:]; n > 0 && len(rest) >= 3; rest = rest[3:] {
		u, v, wt := int(rest[0])%n, int(rest[1])%n, 1+int(rest[2]>>1)%4
		if rest[2]&1 == 0 {
			w.AddConflict(u, v, wt)
		} else {
			w.AddStitch(u, v, wt)
		}
	}
	return w, k, alpha, nodeLimit, true
}

func FuzzBacktrackMatchesReference(f *testing.F) {
	f.Add([]byte{5, 3, 2, 1, 0, 1, 2, 1, 2, 2, 2, 3, 4, 3, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		w, k, alpha, nodeLimit, ok := decodeBacktrackInput(data)
		if !ok {
			t.Skip()
		}
		checkMatchesReference(t, context.Background(), w, k, alpha, nodeLimit)
	})
}

// checkBoundAdmissible compares the kernel with the unbounded walk at the
// same cap. The bound may only remove subtrees without an improving leaf,
// so the kernel meets the unbounded walk's incumbents in the same order
// within fewer nodes: where the unbounded walk is proven the kernel is too,
// with the same colors and counts, and a capped kernel costs no more. The
// bounded reference needs no run of its own: the differential suite holds
// it equal to the kernel.
func checkBoundAdmissible(t *testing.T, w *Weighted, k int, alpha float64, nodeLimit int64) {
	t.Helper()
	ctx := context.Background()
	got := w.BacktrackContext(ctx, k, alpha, nodeLimit)
	want := w.backtrackUnbounded(ctx, k, alpha, nodeLimit)
	fail := func(why string) {
		t.Fatalf("n=%d k=%d alpha=%v cap=%d: %s:\nbounded   %+v\nunbounded %+v", w.NumV, k, alpha, nodeLimit, why, got, want)
	}
	if got.Nodes > want.Nodes {
		fail("bounded walk entered more nodes")
	}
	if want.Proven {
		if !got.Proven || !reflect.DeepEqual(got.Colors, want.Colors) ||
			got.Conflicts != want.Conflicts || got.Stitches != want.Stitches {
			fail("proven results differ")
		}
		return
	}
	gotCost := float64(got.Conflicts) + alpha*float64(got.Stitches)
	wantCost := float64(want.Conflicts) + alpha*float64(want.Stitches)
	if gotCost > wantCost+1e-12 {
		fail("bounded walk costs more")
	}
}

func TestBoundAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	trials := 120
	if testing.Short() {
		trials = 20
	}
	for trial := 0; trial < trials; trial++ {
		n := rng.Intn(25)
		k := 2 + rng.Intn(5)
		w := randomWeighted(rng, n, 0.1+0.6*rng.Float64())
		for _, alpha := range diffAlphas {
			for _, nodeLimit := range diffCaps {
				if nodeLimit == 0 && n > 10 {
					continue // the default cap only where the walk stays short
				}
				checkBoundAdmissible(t, w, k, alpha, nodeLimit)
			}
		}
	}
}

func FuzzBoundDominates(f *testing.F) {
	f.Add([]byte{5, 3, 2, 1, 0, 1, 2, 1, 2, 2, 2, 3, 4, 3, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		w, k, alpha, nodeLimit, ok := decodeBacktrackInput(data)
		if !ok {
			t.Skip()
		}
		checkBoundAdmissible(t, w, k, alpha, nodeLimit)
	})
}

// BenchmarkBacktrack times the exact phase on a fixed seeded 26-vertex K=5
// merged-graph-shaped instance that runs into the node cap: the kernel and
// the recursive reference at the former 2M cap, where ns/node is the
// per-node cost, and the kernel at the production cap BacktrackNodeLimit,
// where ns/op and nodes/op are what one capped dense-k5 search pays.
func BenchmarkBacktrack(b *testing.B) {
	w := randomWeighted(rand.New(rand.NewSource(1)), 26, 0.45)
	for _, bc := range []struct {
		name string
		run  func() BacktrackResult
	}{
		{"kernel", func() BacktrackResult { return w.BacktrackContext(context.Background(), 5, 0.1, 2_000_000) }},
		{"reference", func() BacktrackResult { return w.backtrackReference(context.Background(), 5, 0.1, 2_000_000) }},
		{"production-cap", func() BacktrackResult { return w.BacktrackContext(context.Background(), 5, 0.1, BacktrackNodeLimit) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var nodes int64
			for i := 0; i < b.N; i++ {
				res := bc.run()
				if res.Proven {
					b.Fatal("benchmark instance must hit the node cap")
				}
				nodes += res.Nodes
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes), "ns/node")
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
		})
	}
}
