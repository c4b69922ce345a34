package division

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"mpl/internal/coloring"
	"mpl/internal/graph"
	"mpl/internal/pipeline"
)

// exactSolver is the reference per-component engine for the tests: full
// branch-and-bound on the component.
func exactSolver(k int, alpha float64) Solver {
	return func(g *graph.Graph, _ *pipeline.Scratch) []int {
		res := coloring.FromGraph(g).Backtrack(k, alpha, 0)
		return res.Colors
	}
}

// bruteForce enumerates all k^n colorings for the global optimum.
func bruteForce(g *graph.Graph, k int, alpha float64) (conf int, cost float64) {
	n := g.N()
	ces := g.ConflictEdges()
	ses := g.StitchEdges()
	colors := make([]int, n)
	bestCost := math.Inf(1)
	bestConf := -1
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			c, s := 0, 0
			for _, e := range ces {
				if colors[e.U] == colors[e.V] {
					c++
				}
			}
			for _, e := range ses {
				if colors[e.U] != colors[e.V] {
					s++
				}
			}
			w := float64(c) + alpha*float64(s)
			if w < bestCost {
				bestCost = w
				bestConf = c
			}
			return
		}
		for c := 0; c < k; c++ {
			colors[i] = c
			rec(i + 1)
		}
	}
	rec(0)
	return bestConf, bestCost
}

// randomGraph draws ce conflict and then se stitch candidates over n
// vertices; a stitch never lands on a pair already joined.
func randomGraph(rng *rand.Rand, n, ce, se int) *graph.Graph {
	b := graph.NewBuilder(n)
	joined := map[[2]int]bool{}
	for i := 0; i < ce; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddConflict(u, v)
			joined[[2]int{min(u, v), max(u, v)}] = true
		}
	}
	for i := 0; i < se; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if pair := [2]int{min(u, v), max(u, v)}; u != v && !joined[pair] {
			b.AddStitch(u, v)
			joined[pair] = true
		}
	}
	return b.Build(nil)
}

func TestEmptyGraph(t *testing.T) {
	colors, st := Decompose(graph.NewBuilder(0).Build(nil), Options{K: 4, Alpha: 0.1}, exactSolver(4, 0.1))
	if len(colors) != 0 || st.Components != 0 {
		t.Fatalf("empty = %v %+v", colors, st)
	}
}

func TestIsolatedVertices(t *testing.T) {
	g := graph.NewBuilder(5).Build(nil)
	colors, st := Decompose(g, Options{K: 4, Alpha: 0.1}, exactSolver(4, 0.1))
	if err := coloring.Validate(g, colors, 4); err != nil {
		t.Fatal(err)
	}
	if st.Components != 5 {
		t.Fatalf("components = %d", st.Components)
	}
	// Isolated vertices peel away; the solver should never be called.
	if st.SolverCalls != 0 {
		t.Fatalf("solver calls = %d, want 0", st.SolverCalls)
	}
}

func TestFig5ThreeCutRotation(t *testing.T) {
	// Fig. 5: two triangles joined by the 3-cut (a-d, b-e, c-f). The prism
	// is 3-colorable, so with K=4 the result must have zero conflicts even
	// though the pieces are colored independently and reconnected by
	// rotation. Disable peeling so division actually exercises the GH path
	// (all prism vertices have degree 3 < 4 and would otherwise peel).
	b := graph.NewBuilder(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {0, 3}, {1, 4}, {2, 5}} {
		b.AddConflict(e[0], e[1])
	}
	g := b.Build(nil)
	opts := Options{K: 4, Alpha: 0.1, DisablePeeling: true}
	colors, st := Decompose(g, opts, exactSolver(4, 0.1))
	if err := coloring.Validate(g, colors, 4); err != nil {
		t.Fatal(err)
	}
	if c, _ := coloring.Count(g, colors); c != 0 {
		t.Fatalf("conflicts = %d, want 0 (colors %v)", c, colors)
	}
	if st.GHComponents == 0 {
		t.Fatalf("GH division did not trigger: %+v", st)
	}
}

func TestPeelingHandlesTree(t *testing.T) {
	// A path graph peels completely: zero solver calls, zero conflicts.
	b := graph.NewBuilder(10)
	for i := 0; i < 9; i++ {
		b.AddConflict(i, i+1)
	}
	g := b.Build(nil)
	colors, st := Decompose(g, Options{K: 4, Alpha: 0.1}, exactSolver(4, 0.1))
	if c, _ := coloring.Count(g, colors); c != 0 {
		t.Fatalf("conflicts = %d", c)
	}
	if st.Peeled != 10 || st.SolverCalls != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBiconnectedAlignment(t *testing.T) {
	// Two K5s sharing one articulation vertex. Each block needs 1 conflict
	// (K5 with 4 colors); the shared vertex must end with one consistent
	// color and total conflicts must be exactly 2.
	b := graph.NewBuilder(9)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			b.AddConflict(i, j)
		}
	}
	second := []int{4, 5, 6, 7, 8} // vertex 4 shared
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			b.AddConflict(second[i], second[j])
		}
	}
	g := b.Build(nil)
	colors, st := Decompose(g, Options{K: 4, Alpha: 0.1}, exactSolver(4, 0.1))
	if err := coloring.Validate(g, colors, 4); err != nil {
		t.Fatal(err)
	}
	if c, _ := coloring.Count(g, colors); c != 2 {
		t.Fatalf("conflicts = %d, want 2", c)
	}
	if st.Blocks != 2 {
		t.Fatalf("blocks = %d, want 2 (%+v)", st.Blocks, st)
	}
}

// TestRotationNeverAddsConflict is the paper's Lemma 1 / Theorem 2 as a
// property test: with an exact per-piece solver, the divided solve reaches
// exactly the global optimum conflict count for K ∈ {4, 5, 6}.
func TestRotationNeverAddsConflict(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const alpha = 0.01
	for trial := 0; trial < 60; trial++ {
		k := 4 + rng.Intn(3)
		n := 4 + rng.Intn(5)
		g := randomGraph(rng, n, n+rng.Intn(2*n), rng.Intn(2))
		colors, _ := Decompose(g, Options{K: k, Alpha: alpha}, exactSolver(k, alpha))
		if err := coloring.Validate(g, colors, k); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		gotConf, _ := coloring.Count(g, colors)
		wantConf, _ := bruteForce(g, k, alpha)
		if gotConf != wantConf {
			t.Fatalf("trial %d (k=%d, n=%d): division conflicts %d, optimum %d",
				trial, k, n, gotConf, wantConf)
		}
	}
}

func TestAblationSwitches(t *testing.T) {
	// All four technique combinations must produce valid colorings with
	// the same conflict count on a structured graph (two K5s + a bridge).
	b := graph.NewBuilder(11)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			b.AddConflict(i, j)
			b.AddConflict(5+i, 5+j)
		}
	}
	b.AddConflict(4, 10)
	b.AddConflict(10, 5)
	g := b.Build(nil)
	for _, opt := range []Options{
		{K: 4, Alpha: 0.1},
		{K: 4, Alpha: 0.1, DisablePeeling: true},
		{K: 4, Alpha: 0.1, DisableBiconnected: true},
		{K: 4, Alpha: 0.1, DisableGHTree: true},
		{K: 4, Alpha: 0.1, DisablePeeling: true, DisableBiconnected: true, DisableGHTree: true},
	} {
		colors, _ := Decompose(g, opt, exactSolver(4, 0.1))
		if err := coloring.Validate(g, colors, 4); err != nil {
			t.Fatalf("opts %+v: %v", opt, err)
		}
		if c, _ := coloring.Count(g, colors); c != 2 {
			t.Fatalf("opts %+v: conflicts = %d, want 2", opt, c)
		}
	}
}

func TestGHTreeMaxNCap(t *testing.T) {
	// With the cap below the component size, GH division is skipped and the
	// solver sees the whole block.
	b := graph.NewBuilder(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {0, 3}, {1, 4}, {2, 5}} {
		b.AddConflict(e[0], e[1])
	}
	g := b.Build(nil)
	defer func(n int) { ghTreeMaxN = n }(ghTreeMaxN)
	ghTreeMaxN = 2
	opts := Options{K: 4, Alpha: 0.1, DisablePeeling: true}
	var maxSeen int
	solver := func(sub *graph.Graph, sc *pipeline.Scratch) []int {
		if sub.N() > maxSeen {
			maxSeen = sub.N()
		}
		return exactSolver(4, 0.1)(sub, sc)
	}
	if _, st := Decompose(g, opts, solver); st.GHComponents != 0 {
		t.Fatalf("GH ran despite cap: %+v", st)
	}
	if maxSeen != 6 {
		t.Fatalf("solver saw max %d vertices, want whole block 6", maxSeen)
	}
}

func TestStitchEdgesSurviveDivision(t *testing.T) {
	// Stitch-linked vertices in different GH pieces: rotation scoring must
	// prefer matching them when conflict-free.
	b := graph.NewBuilder(4)
	b.AddConflict(0, 1)
	b.AddConflict(2, 3)
	b.AddStitch(1, 2)
	g := b.Build(nil)
	colors, _ := Decompose(g, Options{K: 4, Alpha: 0.1}, exactSolver(4, 0.1))
	c, s := coloring.Count(g, colors)
	if c != 0 || s != 0 {
		t.Fatalf("conflicts=%d stitches=%d colors=%v, want clean", c, s, colors)
	}
}

func TestBadKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("K=0 did not panic")
		}
	}()
	Decompose(graph.NewBuilder(1).Build(nil), Options{K: 0}, exactSolver(4, 0.1))
}

func TestParallelMatchesSerial(t *testing.T) {
	// Workers > 1 must produce the identical coloring and merged stats as
	// the serial pipeline (components are independent and the solver is
	// deterministic).
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 10; trial++ {
		n := 30 + rng.Intn(60)
		g := randomGraph(rng, n, n, n/4)
		serial, sst := Decompose(g, Options{K: 4, Alpha: 0.1}, exactSolver(4, 0.1))
		par, pst := Decompose(g, Options{K: 4, Alpha: 0.1, Workers: 4}, exactSolver(4, 0.1))
		for v := range serial {
			if serial[v] != par[v] {
				t.Fatalf("trial %d: vertex %d: serial %d, parallel %d", trial, v, serial[v], par[v])
			}
		}
		if !statsEqualIgnoringTime(sst, pst) {
			t.Fatalf("trial %d: stats differ: %+v vs %+v", trial, sst, pst)
		}
	}
}

func TestParallelRace(t *testing.T) {
	// Exercised under -race: many small components, several workers.
	b := graph.NewBuilder(400)
	for i := 0; i < 400; i += 4 {
		b.AddConflict(i, i+1)
		b.AddConflict(i+1, i+2)
		b.AddConflict(i+2, i+3)
		b.AddConflict(i+3, i)
	}
	g := b.Build(nil)
	colors, st := Decompose(g, Options{K: 4, Alpha: 0.1, Workers: 8}, exactSolver(4, 0.1))
	if err := coloring.Validate(g, colors, 4); err != nil {
		t.Fatal(err)
	}
	if st.Components != 100 {
		t.Fatalf("components = %d", st.Components)
	}
}

func TestLPTDispatchMatchesDiscoveryOrder(t *testing.T) {
	// Size-aware (LPT) dispatch only reorders which worker solves which
	// core piece when; the coloring written back must stay byte-identical
	// to the serial, discovery-ordered run at every worker count. The graph
	// is built so LPT genuinely disagrees with discovery order: each
	// component is a chain, which peels away, wired vertex by vertex into
	// a (K+1)-clique, which survives as the component's one core piece.
	// The components appear smallest-first and a clique's weight counts its
	// edges into the chain, so the descending-weight sort reverses the job
	// sequence entirely.
	const k = 4
	sizes := []int{2, 2, 2, 3, 4, 6, 9, 14, 21, 40}
	n := 0
	for _, size := range sizes {
		n += size + k + 1
	}
	b := graph.NewBuilder(n)
	first := 0 // each component's vertices are numbered on from the previous one's
	for _, size := range sizes {
		last := first + size - 1
		for v := first; v < last; v++ {
			b.AddConflict(v, v+1)
		}
		b.AddStitch(first, last)
		clique := last + 1
		for i := 0; i <= k; i++ {
			for j := i + 1; j <= k; j++ {
				b.AddConflict(clique+i, clique+j)
			}
		}
		for v := first; v <= last; v++ {
			b.AddConflict(v, clique+(v-first)%(k+1))
		}
		first = clique + k + 1
	}
	g := b.Build(nil)
	serial, _ := Decompose(g, Options{K: 4, Alpha: 0.1}, exactSolver(4, 0.1))
	for _, workers := range []int{1, 2, 8} {
		colors, st := Decompose(g, Options{K: 4, Alpha: 0.1, Workers: workers}, exactSolver(4, 0.1))
		for v := range serial {
			if colors[v] != serial[v] {
				t.Fatalf("workers=%d: vertex %d: got %d, want %d", workers, v, colors[v], serial[v])
			}
		}
		// The imbalance gauge must be populated whenever components ran:
		// at least one worker busy, extremes ordered.
		if st.Balance.Workers < 1 || st.Balance.Workers > workers {
			t.Fatalf("workers=%d: Balance.Workers = %d", workers, st.Balance.Workers)
		}
		if st.Balance.MaxBusy < st.Balance.MinBusy || st.Balance.MinBusy < 0 {
			t.Fatalf("workers=%d: Balance extremes inverted: %+v", workers, st.Balance)
		}
	}
}

// statsEqualIgnoringTime compares two Stats up to wall-clock noise: all
// counters, histograms, and per-stage region *counts* must match (the
// stage structure is deterministic at any worker count), while stage wall
// times — genuinely run-dependent — are ignored.
// Balance is ignored entirely: both its busy times and its worker count
// (how many pool workers won at least one job) depend on scheduling.
func statsEqualIgnoringTime(a, b Stats) bool {
	sa, sb := a, b
	sa.Stages, sb.Stages = nil, nil
	sa.Balance, sb.Balance = Balance{}, Balance{}
	if !reflect.DeepEqual(sa, sb) {
		return false
	}
	if len(a.Stages) != len(b.Stages) {
		return false
	}
	for name, av := range a.Stages {
		bv, ok := b.Stages[name]
		if !ok || av.Calls != bv.Calls {
			return false
		}
	}
	return true
}

// probeMapValue builds a "1 everywhere" probe for a Stats map value type:
// plain counters get 1, struct values (pipeline.StageStats) get every
// numeric field set to 1.
func probeMapValue(t *testing.T, elem reflect.Type) reflect.Value {
	t.Helper()
	switch elem.Kind() {
	case reflect.Int:
		return reflect.ValueOf(1).Convert(elem)
	case reflect.Struct:
		p := reflect.New(elem).Elem()
		for j := 0; j < p.NumField(); j++ {
			switch p.Field(j).Kind() {
			case reflect.Int, reflect.Int64:
				p.Field(j).SetInt(1)
			case reflect.Uint, reflect.Uint64:
				p.Field(j).SetUint(1)
			default:
				t.Fatalf("map value field %s has kind %s; teach this test how to probe it",
					elem.Field(j).Name, p.Field(j).Kind())
			}
		}
		return p
	default:
		t.Fatalf("map value kind %s unsupported; teach this test how to probe it", elem.Kind())
		return reflect.Value{}
	}
}

// checkMerged verifies a probed value doubled after two Add calls.
func checkMerged(t *testing.T, field string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		if v.Int() != 2 {
			t.Errorf("Stats field %s is not merged by Add; parallel runs would under-report it", field)
		}
	case reflect.Uint, reflect.Uint64:
		if v.Uint() != 2 {
			t.Errorf("Stats field %s is not merged by Add; parallel runs would under-report it", field)
		}
	case reflect.Struct:
		for j := 0; j < v.NumField(); j++ {
			checkMerged(t, field+"."+v.Type().Field(j).Name, v.Field(j))
		}
	default:
		t.Fatalf("field %s kind %s unsupported", field, v.Kind())
	}
}

// TestStatsMergeCoversAllFields guards the parallel stats merge against
// silent under-reporting: every numeric field of Stats except Components
// (which is global, not per-worker) must be summed by Add. A field
// added to Stats without a matching line in Add fails here.
func TestStatsMergeCoversAllFields(t *testing.T) {
	var src Stats
	rv := reflect.ValueOf(&src).Elem()
	for i := 0; i < rv.NumField(); i++ {
		switch rv.Field(i).Kind() {
		case reflect.Int:
			rv.Field(i).SetInt(1)
		case reflect.Map:
			// Histogram fields (Engines, Stages): one probe bucket.
			m := reflect.MakeMap(rv.Field(i).Type())
			m.SetMapIndex(reflect.ValueOf("probe"), probeMapValue(t, rv.Field(i).Type().Elem()))
			rv.Field(i).Set(m)
		case reflect.Struct:
			// Sub-counter structs (Shapes, Balance): every int-kind field
			// set to 1 (Balance's busy times are time.Duration, kind int64).
			sv := rv.Field(i)
			for j := 0; j < sv.NumField(); j++ {
				switch sv.Field(j).Kind() {
				case reflect.Int, reflect.Int64:
					sv.Field(j).SetInt(1)
				default:
					t.Fatalf("Stats field %s.%s has kind %s; teach this test (and Add) how to merge it",
						rv.Type().Field(i).Name, sv.Type().Field(j).Name, sv.Field(j).Kind())
				}
			}
		default:
			t.Fatalf("Stats field %s has kind %s; teach this test (and Add) how to merge it",
				rv.Type().Field(i).Name, rv.Field(i).Kind())
		}
	}
	var dst Stats
	dst.Add(src)
	dst.Add(src)
	dv := reflect.ValueOf(dst)
	for i := 0; i < dv.NumField(); i++ {
		f := dv.Type().Field(i)
		if f.Name == "Components" {
			if dv.Field(i).Int() != 0 {
				t.Errorf("Add must not merge Components (global count)")
			}
			continue
		}
		if f.Name == "Balance" {
			// Balance merges by extremes, not sums: worker counts add,
			// busy-time extremes of identical {1,1} probes stay 1.
			got := dv.Field(i).Interface().(Balance)
			want := Balance{Workers: 2, MaxBusy: 1, MinBusy: 1}
			if got != want {
				t.Errorf("Balance merged to %+v, want %+v (max/min semantics)", got, want)
			}
			continue
		}
		switch dv.Field(i).Kind() {
		case reflect.Int:
			checkMerged(t, f.Name, dv.Field(i))
		case reflect.Map:
			got := dv.Field(i).MapIndex(reflect.ValueOf("probe"))
			if !got.IsValid() {
				t.Errorf("Stats map field %s is not merged by Add; parallel runs would under-report it", f.Name)
				continue
			}
			checkMerged(t, f.Name, got)
		case reflect.Struct:
			checkMerged(t, f.Name, dv.Field(i))
		}
	}
}

// TestStatsAddFoldsStages pins Add's stage rule: Wall and Calls sum per
// stage across keys, and folding a zero Stats into a zero Stats leaves
// both histograms nil (the service aggregate's snapshot copies by folding
// into a zero value, so an idle server reports no stages).
func TestStatsAddFoldsStages(t *testing.T) {
	var dst Stats
	dst.Add(Stats{Stages: map[string]pipeline.StageStats{pipeline.StageBuild: {Wall: 2, Calls: 1}}})
	dst.Add(Stats{Stages: map[string]pipeline.StageStats{
		pipeline.StageBuild: {Wall: 3, Calls: 1},
		pipeline.StageMerge: {Wall: 1, Calls: 1},
	}})
	if b, m := dst.Stages[pipeline.StageBuild], dst.Stages[pipeline.StageMerge]; b.Wall != 5 || b.Calls != 2 || m.Wall != 1 || m.Calls != 1 || len(dst.Stages) != 2 {
		t.Fatalf("folded stages = %+v", dst.Stages)
	}
	var zero Stats
	zero.Add(Stats{})
	if zero.Engines != nil || zero.Stages != nil {
		t.Fatalf("folding nothing must leave the maps nil, got engines %v stages %v", zero.Engines, zero.Stages)
	}
}

// TestStageTelemetry pins the stage accounting contract: a run that peels,
// splits and solves must report simplify/partition/dispatch/stitch regions
// with dispatch calls equal to solver invocations (engine + fallback), and
// the parallel run must report the identical region structure.
func TestStageTelemetry(t *testing.T) {
	// Three disjoint K5 cliques (conflict degree 4 = K, so they survive
	// peeling and reach the solver) with a peelable two-vertex tail each.
	b := graph.NewBuilder(21)
	for base := 0; base < 15; base += 5 {
		for i := 0; i < 5; i++ {
			for j := i + 1; j < 5; j++ {
				b.AddConflict(base+i, base+j)
			}
		}
		tail := 15 + 2*(base/5)
		b.AddConflict(base, tail)
		b.AddConflict(tail, tail+1)
	}
	g := b.Build(nil)
	_, st := Decompose(g, Options{K: 4, Alpha: 0.1}, exactSolver(4, 0.1))
	for _, name := range []string{pipeline.StageSimplify, pipeline.StagePartition, pipeline.StageDispatch} {
		if st.Stages[name].Calls == 0 {
			t.Errorf("stage %q not recorded: %+v", name, st.Stages)
		}
	}
	if got := st.Stages[pipeline.StageDispatch].Calls; got != st.SolverCalls+st.Fallbacks {
		t.Errorf("dispatch calls = %d, want solver+fallback = %d", got, st.SolverCalls+st.Fallbacks)
	}
	for _, name := range []string{pipeline.StageBuild, pipeline.StageMerge} {
		if _, ok := st.Stages[name]; ok {
			t.Errorf("stage %q is owned by internal/core and must not be recorded here", name)
		}
	}
}

// TestCancelledContextFallsBackToLinear checks that a cancelled context
// makes every piece take the linear fallback, never the engine, while the
// coloring stays valid — for both serial and parallel pools, which must
// also agree exactly (determinism is preserved under cancellation).
func TestCancelledContextFallsBackToLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := randomGraph(rng, 80, 80, 20)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	engine := func(sub *graph.Graph, _ *pipeline.Scratch) []int {
		t.Error("engine must not run once the context is cancelled")
		return make([]int, sub.N())
	}
	// Peeling is disabled so every component reaches the solver stage.
	serial, sst := DecomposeContext(ctx, g, Options{K: 4, Alpha: 0.1, DisablePeeling: true}, engine)
	if err := coloring.Validate(g, serial, 4); err != nil {
		t.Fatal(err)
	}
	if sst.Fallbacks == 0 || sst.SolverCalls != 0 {
		t.Fatalf("expected all-fallback stats, got %+v", sst)
	}
	par, pst := DecomposeContext(ctx, g, Options{K: 4, Alpha: 0.1, DisablePeeling: true, Workers: 4}, engine)
	if !statsEqualIgnoringTime(sst, pst) {
		t.Fatalf("serial stats %+v != parallel stats %+v", sst, pst)
	}
	for v := range serial {
		if serial[v] != par[v] {
			t.Fatalf("vertex %d: serial %d, parallel %d", v, serial[v], par[v])
		}
	}
}

// TestWorkerPoolDrainsOnCancel cancels mid-run: the pool must finish every
// component (no vertex left uncolored) with late components on the fallback.
func TestWorkerPoolDrainsOnCancel(t *testing.T) {
	// 100 disjoint K5 cliques: conflict degree 4 = K, so nothing peels and
	// every component reaches the solver (or its fallback) exactly once.
	b := graph.NewBuilder(500)
	for base := 0; base < 500; base += 5 {
		for i := 0; i < 5; i++ {
			for j := i + 1; j < 5; j++ {
				b.AddConflict(base+i, base+j)
			}
		}
	}
	g := b.Build(nil)
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	engine := func(sub *graph.Graph, _ *pipeline.Scratch) []int {
		if calls.Add(1) == 5 {
			cancel()
		}
		res := coloring.FromGraph(sub).Backtrack(4, 0.1, 0)
		return res.Colors
	}
	colors, st := DecomposeContext(ctx, g, Options{K: 4, Alpha: 0.1, Workers: 4}, engine)
	if err := coloring.Validate(g, colors, 4); err != nil {
		t.Fatal(err)
	}
	if st.SolverCalls+st.Fallbacks != 100 {
		t.Fatalf("expected 100 pieces total, got %+v", st)
	}
	if st.Fallbacks == 0 {
		t.Fatalf("expected some fallbacks after mid-run cancel, got %+v", st)
	}
}
