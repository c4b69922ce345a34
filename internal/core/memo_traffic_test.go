package core

import (
	"context"
	"fmt"
	"maps"
	"testing"

	"mpl/internal/flight"
	"mpl/internal/pipeline"
	"mpl/internal/synth"
)

// TestMemoShapeTrafficPinned pins the shape cache's hit/miss traffic on the
// servebench fullchip shape: four seeded S38417 layouts solved auto+memo,
// in order, through one fresh 4096-entry cache. Which pieces hit and which
// go to an engine is a function of the cache key alone, so any change to
// what the key identifies (and any change to which fills are kept) shows
// here as a moved count, even when the colors stay byte-identical. The
// pins hold at one and two division workers: single flight makes
// concurrent twins of a missing piece wait for its owner and hit.
func TestMemoShapeTrafficPinned(t *testing.T) {
	type pin struct {
		hits, misses        int
		conflicts, stitches int
		engines             map[string]int
	}
	want := []pin{
		{26, 2, 20, 3757, map[string]int{"ILP": 1, "SDP+Backtrack": 1, "memo": 26}},
		{27, 1, 21, 3741, map[string]int{"SDP+Backtrack": 1, "memo": 27}},
		{28, 0, 20, 3770, map[string]int{"memo": 28}},
		{28, 0, 20, 3738, map[string]int{"memo": 28}},
	}
	spec, _ := synth.ByName("S38417")
	graphs := make([]*Graph, len(want))
	for i := range graphs {
		dg, err := BuildGraph(synth.GenerateSeeded(spec, 1, int64(i+1)), BuildOptions{K: 4, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		graphs[i] = dg
	}
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			shapes := flight.New[[]int](4096, nil)
			opts := Options{K: 4, Engine: EngineAuto, Memoize: true}
			opts.Division.Workers = workers
			for i, dg := range graphs {
				res, err := decomposeGraphShapes(context.Background(), dg, opts.withDefaults(),
					pipeline.NewRecorder(), sharedScratch, shapes)
				if err != nil {
					t.Fatal(err)
				}
				sh := res.DivisionStats.Shapes
				got := pin{sh.Hits, sh.Misses, res.Conflicts, res.Stitches, res.DivisionStats.Engines}
				w := want[i]
				if got.hits != w.hits || got.misses != w.misses || got.conflicts != w.conflicts ||
					got.stitches != w.stitches || !maps.Equal(got.engines, w.engines) {
					t.Errorf("layout seed %d: got %+v, want %+v", i+1, got, w)
				}
			}
		})
	}
}
