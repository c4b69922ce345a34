package mpl_test

import (
	"context"
	"testing"
	"time"

	"mpl"
)

// gridLayout builds an n×n grid of squares at 50 nm pitch: orthogonal and
// diagonal gaps are both under the 80 nm quadruple-patterning coloring
// distance, so interior vertices keep conflict degree ≥ 4 and the graph
// survives low-degree peeling all the way to the solver stage.
func gridLayout(n int) *mpl.Layout {
	l := mpl.NewLayout("grid")
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			l.AddRect(mpl.Rect{X0: c * 50, Y0: r * 50, X1: c*50 + 20, Y1: r*50 + 20})
		}
	}
	return l
}

// TestDecomposeContextAlreadyCancelled: with a context cancelled before the
// call, every engine must return promptly with a valid coloring in which
// every solver-stage piece took the linear fallback.
func TestDecomposeContextAlreadyCancelled(t *testing.T) {
	algs := []struct {
		name string
		alg  mpl.Algorithm
	}{
		{"ILP", mpl.ILP},
		{"SDPBacktrack", mpl.SDPBacktrack},
		{"SDPGreedy", mpl.SDPGreedy},
		{"Linear", mpl.Linear},
	}
	for _, tc := range algs {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			l := gridLayout(8)
			start := time.Now()
			res, err := mpl.DecomposeContext(ctx, l, mpl.Options{K: 4, Algorithm: tc.alg})
			elapsed := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			if elapsed > 2*time.Second {
				t.Fatalf("cancelled call took %v, want prompt return", elapsed)
			}
			if res.Degraded == 0 {
				t.Fatalf("expected linear fallback on every solver piece, stats %+v", res.DivisionStats)
			}
			if res.Proven {
				t.Fatal("a degraded result must not claim to be proven")
			}
			conf, stit, err := mpl.Verify(res)
			if err != nil {
				t.Fatal(err)
			}
			if conf != res.Conflicts || stit != res.Stitches {
				t.Fatalf("fallback coloring inconsistent: recount %d/%d vs %d/%d", conf, stit, res.Conflicts, res.Stitches)
			}
		})
	}
}

// TestDecomposeContextDeadline is the serving-latency contract: a deadline
// on a dense Table-2-scale circuit must come back quickly (the checkpoint
// granularity of in-flight solves plus the linear fallback for the rest)
// with a valid partial-quality coloring. The deadline must sit well under
// the uncancelled solve, or the solve may finish first and nothing
// degrades: C6288 at K=5 solves in ~40–80 ms on a 2-CPU VM, so the
// deadline is 10 ms and lands during the first engine pieces.
func TestDecomposeContextDeadline(t *testing.T) {
	l, err := mpl.GenerateBenchmark("C6288", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	const deadline = 10 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	res, err := mpl.DecomposeContext(ctx, l, mpl.Options{K: 5, Algorithm: mpl.SDPBacktrack})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	// Locally this lands a few ms past the deadline; the ceiling is slack
	// so a loaded CI machine cannot flake it.
	const ceiling = 500 * time.Millisecond
	if elapsed > ceiling {
		t.Fatalf("deadline run took %v, want well under %v", elapsed, ceiling)
	}
	if res.Degraded == 0 || res.Proven {
		t.Fatalf("expected a degraded unproven result, got degraded=%d proven=%v", res.Degraded, res.Proven)
	}
	conf, stit, err := mpl.Verify(res)
	if err != nil {
		t.Fatal(err)
	}
	if conf != res.Conflicts || stit != res.Stitches {
		t.Fatalf("partial-quality coloring inconsistent: recount %d/%d vs %d/%d", conf, stit, res.Conflicts, res.Stitches)
	}
	t.Logf("deadline %v: returned in %v, degraded pieces %d, cn#=%d st#=%d",
		deadline, elapsed, res.Degraded, res.Conflicts, res.Stitches)
}

// TestDecomposeContextBackgroundMatchesDecompose: an uncancelled context
// must change nothing relative to the plain API.
func TestDecomposeContextBackgroundMatchesDecompose(t *testing.T) {
	l := gridLayout(6)
	opts := mpl.Options{K: 4, Algorithm: mpl.SDPBacktrack, Seed: 3}
	r1, err := mpl.Decompose(l, opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := mpl.DecomposeContext(context.Background(), l, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Conflicts != r2.Conflicts || r1.Stitches != r2.Stitches || r2.Degraded != 0 {
		t.Fatalf("context API diverges: %d/%d vs %d/%d (degraded %d)",
			r1.Conflicts, r1.Stitches, r2.Conflicts, r2.Stitches, r2.Degraded)
	}
	for i := range r1.Colors {
		if r1.Colors[i] != r2.Colors[i] {
			t.Fatalf("color %d differs", i)
		}
	}
}
