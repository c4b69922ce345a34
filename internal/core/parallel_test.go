package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mpl/internal/layout"
	"mpl/internal/synth"
)

// graphsIdentical fails the test unless the two built graphs are fully
// identical: fragment slice (owner + geometry), every adjacency list of
// every edge kind in the same order, counters, and stats (timing and the
// worker count are the only run-varying parts and are excluded).
func graphsIdentical(t *testing.T, want, got *Graph) {
	t.Helper()
	headersIdentical(t, want, got)
	if want.G.N() != got.G.N() {
		t.Fatalf("vertex counts differ: %d vs %d", want.G.N(), got.G.N())
	}
	for v := 0; v < want.G.N(); v++ {
		if !reflect.DeepEqual(want.G.ConflictNeighbors(v), got.G.ConflictNeighbors(v)) {
			t.Fatalf("conflict adjacency of %d differs: %v vs %v", v, want.G.ConflictNeighbors(v), got.G.ConflictNeighbors(v))
		}
		if !reflect.DeepEqual(want.G.StitchNeighbors(v), got.G.StitchNeighbors(v)) {
			t.Fatalf("stitch adjacency of %d differs: %v vs %v", v, want.G.StitchNeighbors(v), got.G.StitchNeighbors(v))
		}
		if !reflect.DeepEqual(want.G.FriendNeighbors(v), got.G.FriendNeighbors(v)) {
			t.Fatalf("friend adjacency of %d differs: %v vs %v", v, want.G.FriendNeighbors(v), got.G.FriendNeighbors(v))
		}
	}
}

// headersIdentical is graphsIdentical without the adjacency: fragments,
// parameters and stats.
func headersIdentical(t *testing.T, want, got *Graph) {
	t.Helper()
	if !reflect.DeepEqual(want.Fragments, got.Fragments) {
		t.Fatalf("fragment tables differ: %d vs %d fragments", len(want.Fragments), len(got.Fragments))
	}
	if want.MinS != got.MinS || want.HalfPitch != got.HalfPitch {
		t.Fatalf("parameters differ: minS %d/%d hp %d/%d", want.MinS, got.MinS, want.HalfPitch, got.HalfPitch)
	}
	ws, gs := want.Stats, got.Stats
	ws.Timing, gs.Timing = BuildTiming{}, BuildTiming{}
	ws.Workers, gs.Workers = 0, 0
	if ws != gs {
		t.Fatalf("stats differ: %+v vs %+v", ws, gs)
	}
}

// parallelCases returns every committed benchmark layout plus two synthetic
// circuits whose regimes (macros, crosses, wires) exercise all edge kinds.
func parallelCases(t *testing.T) map[string]*layout.Layout {
	t.Helper()
	out := map[string]*layout.Layout{}
	lays, err := filepath.Glob(filepath.Join("..", "..", "benchmarks", "*.lay"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range lays {
		l, err := layout.ReadAny(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out[filepath.Base(path)] = l
	}
	if len(out) == 0 {
		t.Fatal("no committed benchmarks/*.lay found")
	}
	for _, name := range []string{"C6288", "S15850"} {
		spec, ok := synth.ByName(name)
		if !ok {
			t.Fatalf("unknown synthetic circuit %s", name)
		}
		out["synth-"+name] = synth.Generate(spec, 0.3)
	}
	return out
}

// TestParallelBuildIdentical is the tentpole determinism contract: the
// sharded parallel build must produce a graph identical to the serial build
// — same fragments, same adjacency order, same stats — at every worker
// count, for every committed benchmark circuit.
func TestParallelBuildIdentical(t *testing.T) {
	for name, l := range parallelCases(t) {
		t.Run(name, func(t *testing.T) {
			ref, err := BuildGraph(l, BuildOptions{K: 4})
			if err != nil {
				t.Fatal(err)
			}
			if ref.Stats.Workers != 1 {
				t.Fatalf("serial build reports %d workers", ref.Stats.Workers)
			}
			for _, w := range []int{2, 8} {
				got, err := BuildGraph(l, BuildOptions{K: 4, Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				graphsIdentical(t, ref, got)
			}
		})
	}
}

// TestParallelBuildIdenticalNoStitches covers the DisableStitches path and a
// non-default K/MinS combination.
func TestParallelBuildIdenticalNoStitches(t *testing.T) {
	spec, _ := synth.ByName("C7552")
	l := synth.Generate(spec, 0.3)
	opts := BuildOptions{K: 5, DisableStitches: true}
	ref, err := BuildGraph(l, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 8
	got, err := BuildGraph(l, opts)
	if err != nil {
		t.Fatal(err)
	}
	graphsIdentical(t, ref, got)
}

// TestBuildGraphContextCancelled: a context cancelled before (or during) the
// build must surface as a wrapped ctx error, promptly, with no graph.
func TestBuildGraphContextCancelled(t *testing.T) {
	spec, _ := synth.ByName("S38417")
	l := synth.Generate(spec, 0.5)
	for _, w := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		g, err := BuildGraphContext(ctx, l, BuildOptions{K: 4, Workers: w})
		if err == nil || g != nil {
			t.Fatalf("workers=%d: cancelled build returned graph=%v err=%v", w, g != nil, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: error %v does not wrap context.Canceled", w, err)
		}
	}
}

// TestBuildTimingPopulated: a successful build reports its per-stage wall
// clock, and the stages are bounded by the total.
func TestBuildTimingPopulated(t *testing.T) {
	spec, _ := synth.ByName("C6288")
	l := synth.Generate(spec, 0.3)
	g, err := BuildGraph(l, BuildOptions{K: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	tm := g.Stats.Timing
	if tm.Total <= 0 {
		t.Fatalf("total build time not recorded: %+v", tm)
	}
	if tm.Split < 0 || tm.Edges < 0 || tm.Merge < 0 {
		t.Fatalf("negative stage time: %+v", tm)
	}
	if sum := tm.Split + tm.Edges + tm.Merge; sum > 2*tm.Total+1 {
		t.Fatalf("stage times %v exceed total %v", sum, tm.Total)
	}
	if g.Stats.Workers != 2 {
		t.Fatalf("workers = %d, want 2", g.Stats.Workers)
	}
}

// TestBuildWorkersMatchesBenchmarksOnDisk guards the committed .lay files
// against drifting from the generator: the graph built from the file must
// equal the graph built from a fresh synthetic generation at scale 1.
func TestBuildWorkersMatchesBenchmarksOnDisk(t *testing.T) {
	path := filepath.Join("..", "..", "benchmarks", "C432.lay")
	if _, err := os.Stat(path); err != nil {
		t.Skip("benchmarks/C432.lay not present")
	}
	onDisk, err := layout.ReadAny(path)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := synth.ByName("C432")
	fresh := synth.Generate(spec, 1.0)
	gd, err := BuildGraph(onDisk, BuildOptions{K: 4, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	gf, err := BuildGraph(fresh, BuildOptions{K: 4, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	graphsIdentical(t, gf, gd)
}
