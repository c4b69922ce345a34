package service

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"mpl/internal/core"
	"mpl/internal/geom"
	"mpl/internal/layout"
	"mpl/internal/synth"
)

// denseRow builds a small layout with real conflicts: n rectangles in a row
// closer than the quadruple-patterning coloring distance.
func denseRow(name string, n int) *layout.Layout {
	l := layout.New(name)
	for i := 0; i < n; i++ {
		x := i * 50 // 30 nm gaps < minS = 80 nm
		l.AddRect(geom.Rect{X0: x, Y0: 0, X1: x + 20, Y1: 200})
	}
	return l
}

// denseGrid builds an n×n grid at 50 nm pitch: interior squares conflict
// with 8 neighbors (orthogonal and diagonal gaps both < 80 nm), so the
// decomposition graph survives low-degree peeling and reaches the solver.
func denseGrid(n int) *layout.Layout {
	l := layout.New("grid")
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			l.AddRect(geom.Rect{X0: c * 50, Y0: r * 50, X1: c*50 + 20, Y1: r*50 + 20})
		}
	}
	return l
}

func TestCacheHitOnIdenticalRequest(t *testing.T) {
	s := New(Config{})
	l := denseRow("row", 8)
	opts := core.Options{K: 4, Algorithm: core.AlgSDPBacktrack}

	r1, cached, err := s.Decompose(context.Background(), l, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("first call must be a miss")
	}
	r2, cached, err := s.Decompose(context.Background(), l, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("second identical call must be a hit")
	}
	if r1.Conflicts != r2.Conflicts || r1.Stitches != r2.Stitches {
		t.Fatalf("cached result differs: %d/%d vs %d/%d", r1.Conflicts, r1.Stitches, r2.Conflicts, r2.Stitches)
	}
	st := s.StatsSnapshot()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}

	// A renamed but geometrically identical layout also hits.
	renamed := denseRow("other-name", 8)
	if _, cached, err = s.Decompose(context.Background(), renamed, opts); err != nil || !cached {
		t.Fatalf("renamed identical layout: cached=%v err=%v", cached, err)
	}
}

func TestCachedResultIsIsolated(t *testing.T) {
	s := New(Config{})
	l := denseRow("row", 8)
	opts := core.Options{K: 4, Algorithm: core.AlgLinear}
	r1, _, err := s.Decompose(context.Background(), l, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Colors {
		r1.Colors[i] = 0 // simulate caller mutation (BalanceMasks etc.)
	}
	r2, cached, err := s.Decompose(context.Background(), l, opts)
	if err != nil || !cached {
		t.Fatalf("cached=%v err=%v", cached, err)
	}
	conf, stit := 0, 0
	conf, stit, err = core.VerifySolution(r2)
	if err != nil {
		t.Fatal(err)
	}
	if conf != r2.Conflicts || stit != r2.Stitches {
		t.Fatalf("cached result corrupted by caller mutation: recount %d/%d vs %d/%d", conf, stit, r2.Conflicts, r2.Stitches)
	}
}

func TestDifferentOptionsMiss(t *testing.T) {
	s := New(Config{})
	l := denseRow("row", 8)
	base := core.Options{K: 4, Algorithm: core.AlgLinear}
	variants := []core.Options{
		{K: 3, Algorithm: core.AlgLinear},
		{K: 4, Algorithm: core.AlgSDPGreedy},
		{K: 4, Algorithm: core.AlgLinear, Alpha: 0.3},
		{K: 4, Algorithm: core.AlgLinear, Seed: 7},
	}
	if _, _, err := s.Decompose(context.Background(), l, base); err != nil {
		t.Fatal(err)
	}
	for i, opts := range variants {
		_, cached, err := s.Decompose(context.Background(), l, opts)
		if err != nil {
			t.Fatal(err)
		}
		if cached {
			t.Fatalf("variant %d (%+v) must miss", i, opts)
		}
	}
	if st := s.StatsSnapshot(); st.Hits != 0 || st.Misses != uint64(1+len(variants)) {
		t.Fatalf("stats = %+v", st)
	}
}

func TestNormalizedOptionsShareEntry(t *testing.T) {
	s := New(Config{})
	l := denseRow("row", 6)
	if _, _, err := s.Decompose(context.Background(), l, core.Options{Algorithm: core.AlgLinear}); err != nil {
		t.Fatal(err)
	}
	// Explicitly spelled defaults must hit the zero-value entry.
	_, cached, err := s.Decompose(context.Background(), l, core.Options{
		K: 4, Algorithm: core.AlgLinear, Alpha: 0.1, Threshold: 0.9, ILPTimeLimit: 60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("default-equivalent options must share the cache entry")
	}
}

func TestWorkersOptionSharesEntry(t *testing.T) {
	s := New(Config{})
	l := denseRow("row", 6)
	opts := core.Options{K: 4, Algorithm: core.AlgLinear}
	if _, _, err := s.Decompose(context.Background(), l, opts); err != nil {
		t.Fatal(err)
	}
	opts.Division.Workers = 8 // result-identical, must not split the cache
	if _, cached, err := s.Decompose(context.Background(), l, opts); err != nil || !cached {
		t.Fatalf("cached=%v err=%v", cached, err)
	}
}

func TestGraphCacheSharedAcrossAlgorithms(t *testing.T) {
	s := New(Config{})
	l := denseRow("row", 8)
	if _, _, err := s.Decompose(context.Background(), l, core.Options{K: 4, Algorithm: core.AlgLinear}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Decompose(context.Background(), l, core.Options{K: 4, Algorithm: core.AlgSDPGreedy}); err != nil {
		t.Fatal(err)
	}
	if st := s.StatsSnapshot(); st.GraphHits != 1 {
		t.Fatalf("stats = %+v, want one graph-cache hit across the algorithm sweep", st)
	}
}

func TestLRUEviction(t *testing.T) {
	s := New(Config{CacheSize: 2})
	ctx := context.Background()
	opts := core.Options{K: 4, Algorithm: core.AlgLinear}
	for i := 0; i < 3; i++ {
		if _, _, err := s.Decompose(ctx, denseRow("row", 4+i), opts); err != nil {
			t.Fatal(err)
		}
	}
	st := s.StatsSnapshot()
	if st.Size != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want size 2 with 1 eviction", st)
	}
	// The oldest entry (4 rects) was evicted: re-requesting it misses.
	if _, cached, err := s.Decompose(ctx, denseRow("row", 4), opts); err != nil || cached {
		t.Fatalf("cached=%v err=%v, want evicted miss", cached, err)
	}
	// The most recent entry still hits.
	if _, cached, err := s.Decompose(ctx, denseRow("row", 6), opts); err != nil || !cached {
		t.Fatalf("cached=%v err=%v, want hit", cached, err)
	}
}

func TestSingleFlight(t *testing.T) {
	s := New(Config{Workers: 4})
	l, err := synth.GenerateByName("C432", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{K: 4, Algorithm: core.AlgSDPBacktrack}
	const callers = 8
	var wg sync.WaitGroup
	results := make([]*core.Result, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, _, err := s.Decompose(context.Background(), l, opts)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	st := s.StatsSnapshot()
	if st.Misses != 1 {
		t.Fatalf("stats = %+v, want exactly one solve for %d identical concurrent requests", st, callers)
	}
	for i := 1; i < callers; i++ {
		if results[i].Conflicts != results[0].Conflicts {
			t.Fatalf("caller %d saw different conflicts", i)
		}
	}
}

func TestInvalidKRejected(t *testing.T) {
	s := New(Config{})
	if _, _, err := s.Decompose(context.Background(), denseRow("row", 4), core.Options{K: 1}); err == nil {
		t.Fatal("K=1 must be rejected, not panic")
	}
}

func TestInvalidAlphaRejected(t *testing.T) {
	s := New(Config{})
	ctx := context.Background()
	l := denseRow("row", 4)
	for _, alpha := range []float64{-1, -1e-9, math.NaN(), math.Inf(1)} {
		if _, _, err := s.Decompose(ctx, l, core.Options{K: 4, Alpha: alpha}); err == nil {
			t.Errorf("alpha=%v: Decompose must reject it", alpha)
		}
		if _, _, _, _, err := s.DecomposeIncremental(ctx, LayoutHash(l), nil, core.Options{K: 4, Alpha: alpha}); err == nil || errors.Is(err, ErrNoSession) {
			t.Errorf("alpha=%v: DecomposeIncremental err = %v, want a validation error", alpha, err)
		}
	}
}

func TestDegradedResultNotCached(t *testing.T) {
	s := New(Config{})
	l := denseGrid(8)
	opts := core.Options{K: 4, Algorithm: core.AlgSDPBacktrack}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, _, err := s.Decompose(ctx, l, opts)
	if err == nil && res.Degraded == 0 {
		t.Fatal("cancelled context must yield an error or a degraded result")
	}
	if st := s.StatsSnapshot(); st.Size != 0 {
		t.Fatalf("degraded/failed solve must not be cached: %+v", st)
	}
	// A healthy follow-up gets a fresh full-quality run.
	res, cached, err := s.Decompose(context.Background(), l, opts)
	if err != nil {
		t.Fatal(err)
	}
	// (Proven may still be false here — the dense grid can exhaust the
	// backtrack node limit — but nothing may run on the fallback path.)
	if cached || res.Degraded != 0 {
		t.Fatalf("follow-up: cached=%v degraded=%d", cached, res.Degraded)
	}
}

func TestGraphBuildSingleFlight(t *testing.T) {
	s := New(Config{Workers: 8})
	l := denseRow("row", 10)
	algs := []core.Algorithm{core.AlgLinear, core.AlgSDPGreedy, core.AlgSDPBacktrack}
	var wg sync.WaitGroup
	for _, a := range algs {
		wg.Add(1)
		go func(a core.Algorithm) {
			defer wg.Done()
			if _, _, err := s.Decompose(context.Background(), l, core.Options{K: 4, Algorithm: a}); err != nil {
				t.Error(err)
			}
		}(a)
	}
	wg.Wait()
	// Three concurrent requests over one layout: exactly one graph build,
	// the other two wait on the in-flight entry.
	if st := s.StatsSnapshot(); st.GraphHits != uint64(len(algs)-1) {
		t.Fatalf("stats = %+v, want %d graph hits", st, len(algs)-1)
	}
}
