package core

// Representation-equivalence suite for the CSR graph core: the arena-backed
// two-pass build (graph.Builder) must produce graphs byte-identical to the
// legacy mutable-adjacency representation — the pre-CSR per-insert path,
// preserved below as referenceBuildGraph — on every committed circuit and
// across a population of seeded random layouts, at workers 1 and 8 (the
// resident serial stream and the sharded parallel stream).

import (
	"fmt"
	"testing"

	"mpl/internal/geom"
	"mpl/internal/graph"
	"mpl/internal/layout"
	"mpl/internal/spatial"
	"mpl/internal/synth"
)

// referenceBuildGraph is the legacy serial builder kept as the test oracle:
// fragments split in feature order, then a graph.New mutable graph grown
// edge by edge through sorted per-insert Add* calls — the exact
// representation and insertion discipline the codebase used before the CSR
// core, whose output the golden suites pinned.
func referenceBuildGraph(l *layout.Layout, opts BuildOptions) (*Graph, error) {
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
		splitter := newStitchSplitter(l, minS, opts)
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

	// Stage 2: fragment numbering and mutable stitch insertion.
	var frags []Fragment
	fragsOfFeature := make([][]int, nf)
	for fi, ps := range pieces {
		for _, p := range ps {
			fragsOfFeature[fi] = append(fragsOfFeature[fi], len(frags))
			frags = append(frags, Fragment{Feature: fi, Shape: p})
		}
	}
	g := graph.New(len(frags))
	stats := BuildStats{Features: nf, Fragments: len(frags), Workers: 1}
	for fi, pairs := range stitches {
		ids := fragsOfFeature[fi]
		for _, pr := range pairs {
			if g.AddStitch(ids[pr[0]], ids[pr[1]]) {
				stats.StitchEdges++
			}
		}
	}

	// Stage 3: per-insert conflict/friend discovery in ascending order.
	n := len(frags)
	if n > 0 {
		radius := minS + hp
		world := l.Bounds().Expand(radius + 1)
		bounds := make([]geom.Rect, n)
		for i, fr := range frags {
			bounds[i] = fr.Shape.Bounds()
		}
		grid := spatial.NewGrid(world, radius, bounds)
		defer grid.Release()
		minSq := int64(minS) * int64(minS)
		friendOuter := int64(radius) * int64(radius)
		for i := 0; i < n; i++ {
			fi := frags[i]
			grid.Near(fi.Shape.Bounds(), radius, func(j int) {
				if j <= i || fi.Feature == frags[j].Feature {
					return
				}
				d := geom.GapSqPoly(fi.Shape, frags[j].Shape)
				switch {
				case d <= minSq:
					if g.AddConflict(i, j) {
						stats.ConflictEdges++
					}
				case d < friendOuter:
					if g.AddFriend(i, j) {
						stats.FriendEdges++
					}
				}
			})
		}
	}
	return &Graph{G: g, Fragments: frags, Stats: stats, MinS: minS, HalfPitch: hp}, nil
}

// TestCSRMatchesLegacyCommitted: on every committed circuit (plus the two
// synthetic regimes), the CSR build at workers 1 (resident stream) and 8
// (sharded per-chunk streams) is byte-identical to the legacy mutable
// representation.
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
				graphsIdentical(t, ref, got)
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
			graphsIdentical(t, ref, got)
		}
	}
}
