package core

// Representation-equivalence suite for the CSR graph core: the two-pass
// build (graph.Builder) must produce graphs byte-identical to the legacy
// per-insert adjacency — the pre-CSR path, preserved below as
// referenceBuildGraph — on every committed circuit and across a population
// of seeded random layouts, at workers 1 and 8 (the resident serial stream
// and the sharded parallel stream).

import (
	"fmt"
	"slices"
	"testing"

	"mpl/internal/geom"
	"mpl/internal/graph"
	"mpl/internal/layout"
	"mpl/internal/spatial"
	"mpl/internal/synth"
)

// legacyRows is the per-insert adjacency the codebase kept before the CSR
// core: one sorted, duplicate-free []int32 row per vertex and edge kind.
type legacyRows [][]int32

// add inserts the undirected edge {u,v}, reporting whether it was new.
func (r legacyRows) add(u, v int) bool {
	i, found := slices.BinarySearch(r[u], int32(v))
	if found {
		return false
	}
	r[u] = slices.Insert(r[u], i, int32(v))
	j, _ := slices.BinarySearch(r[v], int32(u))
	r[v] = slices.Insert(r[v], j, int32(u))
	return true
}

// legacyGraph is referenceBuildGraph's output: a built Graph's fragments,
// stats and parameters (G left nil), with per-insert rows in place of the
// CSR graph.
type legacyGraph struct {
	hdr                Graph
	conf, stit, friend legacyRows
}

// referenceBuildGraph is the legacy serial builder kept as the test oracle:
// fragments split in feature order, then per-vertex rows grown edge by edge
// through sorted per-insert adds — the exact representation and insertion
// discipline the codebase used before the CSR core, whose output the golden
// suites pinned.
func referenceBuildGraph(l *layout.Layout, opts BuildOptions) (*legacyGraph, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	k := opts.K
	if k == 0 {
		k = 4
	}
	minS := opts.MinS
	if minS == 0 {
		minS = l.Process.MinColoringDistance(k)
	}
	if minS <= 0 {
		return nil, fmt.Errorf("core: non-positive minimum coloring distance %d", minS)
	}
	hp := l.Process.HalfPitch

	// Stage 1: per-feature stitch splitting (serial).
	nf := len(l.Features)
	pieces := make([][]geom.Polygon, nf)
	stitches := make([][][2]int, nf)
	if opts.DisableStitches {
		for fi := range l.Features {
			pieces[fi] = []geom.Polygon{l.Features[fi]}
		}
	} else {
		splitter := newStitchSplitter(l, minS)
		defer splitter.grid.Release()
		q := splitter.grid.NewQuerier()
		defer q.Release()
		buf := newSplitBuf(nf)
		for fi := range l.Features {
			ps := splitter.split(q, buf, fi, l.Features[fi])
			pieces[fi] = ps
			for i := 0; i < len(ps); i++ {
				for j := i + 1; j < len(ps); j++ {
					if geom.GapSqPoly(ps[i], ps[j]) == 0 {
						stitches[fi] = append(stitches[fi], [2]int{i, j})
					}
				}
			}
		}
	}

	// Stage 2: fragment numbering and per-insert stitch insertion.
	var frags []Fragment
	fragsOfFeature := make([][]int, nf)
	for fi, ps := range pieces {
		for _, p := range ps {
			fragsOfFeature[fi] = append(fragsOfFeature[fi], len(frags))
			frags = append(frags, Fragment{Feature: fi, Shape: p})
		}
	}
	n := len(frags)
	g := &legacyGraph{conf: make(legacyRows, n), stit: make(legacyRows, n), friend: make(legacyRows, n)}
	stats := BuildStats{Features: nf, Fragments: n, Workers: 1}
	for fi, pairs := range stitches {
		ids := fragsOfFeature[fi]
		for _, pr := range pairs {
			if g.stit.add(ids[pr[0]], ids[pr[1]]) {
				stats.StitchEdges++
			}
		}
	}

	// Stage 3: per-insert conflict/friend discovery in ascending order.
	if n > 0 {
		radius := minS + hp
		world := l.Bounds().Expand(radius + 1)
		bounds := make([]geom.Rect, n)
		for i, fr := range frags {
			bounds[i] = fr.Shape.Bounds()
		}
		grid := spatial.NewGrid(world, radius, bounds)
		defer grid.Release()
		q := grid.NewQuerier()
		defer q.Release()
		minSq := int64(minS) * int64(minS)
		friendOuter := int64(radius) * int64(radius)
		for i := 0; i < n; i++ {
			fi := frags[i]
			q.Near(fi.Shape.Bounds(), radius, func(j int) {
				if j <= i || fi.Feature == frags[j].Feature {
					return
				}
				d := geom.GapSqPoly(fi.Shape, frags[j].Shape)
				switch {
				case d <= minSq:
					if g.conf.add(i, j) {
						stats.ConflictEdges++
					}
				case d < friendOuter:
					if g.friend.add(i, j) {
						stats.FriendEdges++
					}
				}
			})
		}
	}
	g.hdr = Graph{Fragments: frags, Stats: stats, MinS: minS, HalfPitch: hp}
	return g, nil
}

// matchesLegacy fails unless got is the graph the legacy builder produced:
// same fragments, parameters and stats (timing and worker count aside), and
// the same rows, read through the public accessors, for every vertex and
// edge kind.
func matchesLegacy(t *testing.T, ref *legacyGraph, got *Graph) {
	t.Helper()
	headersIdentical(t, &ref.hdr, got)
	if got.G.N() != len(ref.conf) {
		t.Fatalf("vertex counts differ: %d vs %d", len(ref.conf), got.G.N())
	}
	for v := 0; v < got.G.N(); v++ {
		for kind, rows := range [][2][]int32{
			{ref.conf[v], got.G.ConflictNeighbors(v)},
			{ref.stit[v], got.G.StitchNeighbors(v)},
			{ref.friend[v], got.G.FriendNeighbors(v)},
		} {
			if !slices.Equal(rows[0], rows[1]) {
				t.Fatalf("kind %d row %d differs: %v vs %v", kind, v, rows[0], rows[1])
			}
		}
	}
}

// reversedRebuild exports g's sorted edge lists of every kind and feeds
// them to a fresh Builder last pair first, each pair as (V, U).
func reversedRebuild(g *graph.Graph) *graph.Graph {
	b := graph.NewBuilder(g.N())
	for _, kind := range []struct {
		rows func(int) []int32
		add  func(u, v int)
	}{
		{g.ConflictNeighbors, b.AddConflict},
		{g.StitchNeighbors, b.AddStitch},
		{g.FriendNeighbors, b.AddFriend},
	} {
		var edges []graph.Edge
		for u := 0; u < g.N(); u++ {
			for _, v := range kind.rows(u) {
				if int(v) > u {
					edges = append(edges, graph.Edge{U: u, V: int(v)})
				}
			}
		}
		for i := len(edges) - 1; i >= 0; i-- {
			kind.add(edges[i].V, edges[i].U)
		}
	}
	return b.Build(nil)
}

// TestCSRMatchesLegacyCommitted: on every committed circuit (plus the two
// synthetic regimes), the CSR build at workers 1 (resident stream) and 8
// (sharded per-chunk streams) is byte-identical to the legacy per-insert
// representation, and survives a round trip — its sorted edge lists fed
// back through a Builder in reversed pair order — unchanged.
func TestCSRMatchesLegacyCommitted(t *testing.T) {
	for name, l := range parallelCases(t) {
		t.Run(name, func(t *testing.T) {
			ref, err := referenceBuildGraph(l, BuildOptions{K: 4})
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{1, 8} {
				got, err := BuildGraph(l, BuildOptions{K: 4, Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				matchesLegacy(t, ref, got)
				rt := *got
				rt.G = reversedRebuild(got.G)
				graphsIdentical(t, got, &rt)
				if rt.G.ConflictEdgeCount() != got.G.ConflictEdgeCount() ||
					rt.G.StitchEdgeCount() != got.G.StitchEdgeCount() ||
					rt.G.FriendEdgeCount() != got.G.FriendEdgeCount() {
					t.Fatalf("round trip edge counts %d/%d/%d, built %d/%d/%d",
						rt.G.ConflictEdgeCount(), rt.G.StitchEdgeCount(), rt.G.FriendEdgeCount(),
						got.G.ConflictEdgeCount(), got.G.StitchEdgeCount(), got.G.FriendEdgeCount())
				}
			}
		})
	}
}

// TestCSRMatchesLegacyRandom is the population property: 200 seeded random
// layouts, CSR workers 1/8 versus the legacy oracle.
func TestCSRMatchesLegacyRandom(t *testing.T) {
	cases := 200
	if raceEnabled {
		cases = 40
	}
	if testing.Short() {
		cases = 25
	}
	for seed := 0; seed < cases; seed++ {
		l := synth.Random(int64(seed))
		ref, err := referenceBuildGraph(l, BuildOptions{K: 4})
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		for _, w := range []int{1, 8} {
			got, err := BuildGraph(l, BuildOptions{K: 4, Workers: w})
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, w, err)
			}
			matchesLegacy(t, ref, got)
		}
	}
}
