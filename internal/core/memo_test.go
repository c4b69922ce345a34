package core

// Byte-equivalence harness for the shape tier: a solve served from a warm
// tier must be indistinguishable from a solve on a disabled tier in every
// observable output — colors byte-for-byte, cn#/st#, Proven, the engine
// histogram — on every committed circuit, every engine, serial and
// parallel. Plus the concurrency contract: N identical components dispatch
// exactly one engine solve and the rest are tier hits, even when the
// division worker pool hits the shape simultaneously under -race.

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"path/filepath"
	"testing"
	"time"

	"mpl/internal/flight"
	"mpl/internal/graph"
	"mpl/internal/layout"
	"mpl/internal/synth"
)

// freshTier is an empty shape tier, so hit/miss counters are a function of
// the runs through it alone, not of test order; noTier is a disabled one
// (every piece goes to an engine): the oracle of the equivalence suites.
func freshTier() *flight.Cache[shapeEntry] { return flight.New[shapeEntry](4096, nil) }
func noTier() *flight.Cache[shapeEntry]    { return flight.New[shapeEntry](-1, nil) }

// tierRun solves dg with opts through the given shape tier.
func tierRun(t *testing.T, dg *Graph, opts Options, shapes *flight.Cache[shapeEntry]) *Result {
	t.Helper()
	if _, err := ParseEngine(opts.Engine); err != nil {
		t.Fatal(err)
	}
	res, err := decomposeGraph(context.Background(), dg, opts.withDefaults(), false, sharedScratch, shapes)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameSolve fails unless two results agree in every observable output.
func sameSolve(t *testing.T, want, got *Result) {
	t.Helper()
	if !bytes.Equal(intsToBytes(want.Colors), intsToBytes(got.Colors)) {
		t.Fatalf("tier-served colors differ from a fresh solve")
	}
	if want.Conflicts != got.Conflicts || want.Stitches != got.Stitches {
		t.Fatalf("objective drifted: fresh %d/%d, tier %d/%d",
			want.Conflicts, want.Stitches, got.Conflicts, got.Stitches)
	}
	if want.Proven != got.Proven {
		t.Fatalf("Proven drifted: fresh %v, tier %v", want.Proven, got.Proven)
	}
	if !maps.Equal(want.DivisionStats.Engines, got.DivisionStats.Engines) {
		t.Fatalf("engine histogram drifted: fresh %v, tier %v",
			want.DivisionStats.Engines, got.DivisionStats.Engines)
	}
}

func committedCircuit(t *testing.T, name string) *Graph {
	t.Helper()
	l, err := layout.ReadFile(filepath.Join("..", "..", "benchmarks", name+".lay"))
	if err != nil {
		t.Fatalf("%s: %v (pinned to the committed .lay files)", name, err)
	}
	dg, err := BuildGraph(l, BuildOptions{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	return dg
}

// TestMemoizedByteIdenticalToMemoOff is the headline equivalence gate:
// a fresh tier (repeats within the circuit hit) against a disabled tier on
// all committed circuits × engines × workers 1/8.
func TestMemoizedByteIdenticalToMemoOff(t *testing.T) {
	circuits := []string{"C432", "C499", "C880", "C1355", "C5315"}
	type engine struct {
		label string
		opts  Options
	}
	engines := []engine{
		{"linear", Options{K: 4, Algorithm: AlgLinear, Seed: 1}},
		{"sdp-greedy", Options{K: 4, Algorithm: AlgSDPGreedy, Seed: 1}},
		{"sdp-backtrack", Options{K: 4, Algorithm: AlgSDPBacktrack, Seed: 1}},
		{"auto", Options{K: 4, Engine: EngineAuto, Seed: 1, ILPTimeLimit: 10 * time.Minute}},
	}
	if testing.Short() {
		circuits = circuits[:2]
		engines = engines[:2]
	}
	for _, name := range circuits {
		dg := committedCircuit(t, name)
		for _, eng := range engines {
			for _, workers := range []int{1, 8} {
				t.Run(fmt.Sprintf("%s/%s/w%d", name, eng.label, workers), func(t *testing.T) {
					opts := eng.opts
					opts.Division.Workers = workers
					base := tierRun(t, dg, opts, noTier())
					memo := tierRun(t, dg, opts, freshTier())
					sameSolve(t, base, memo)
					// Counter accounting: every solver piece was either a
					// hit or a miss (committed circuits have no pieces over
					// canon.MaxVertices), and the disabled tier misses all.
					bs := base.DivisionStats.Shapes
					if bs.Hits != 0 || bs.Misses != base.DivisionStats.SolverCalls {
						t.Fatalf("disabled tier: %+v over %d solver calls", bs, base.DivisionStats.SolverCalls)
					}
					sh := memo.DivisionStats.Shapes
					if sh.Hits+sh.Misses != memo.DivisionStats.SolverCalls {
						t.Fatalf("shape counters don't cover solver calls: %+v vs %d calls",
							sh, memo.DivisionStats.SolverCalls)
					}
					if sh.Distinct == 0 || sh.Distinct > sh.Hits+sh.Misses {
						t.Fatalf("implausible distinct-shape count: %+v", sh)
					}
				})
			}
		}
	}
}

func intsToBytes(xs []int) []byte {
	b := make([]byte, 0, len(xs))
	for _, x := range xs {
		b = append(b, byte(x))
	}
	return b
}

// TestMemoizedILPByteIdentical covers the exact engine separately (it is
// too slow for the full matrix): C432 under ILP, fresh vs disabled tier.
func TestMemoizedILPByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("exact engine on a committed circuit; skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("exact search is ~25x slower under -race")
	}
	dg := committedCircuit(t, "C432")
	opts := Options{K: 4, Algorithm: AlgILP, Seed: 1, ILPTimeLimit: 10 * time.Minute}
	base := tierRun(t, dg, opts, noTier())
	memo := tierRun(t, dg, opts, freshTier())
	sameSolve(t, base, memo)
	if !memo.Proven || !base.Proven {
		t.Fatalf("ILP run not proven (base %v, memo %v)", base.Proven, memo.Proven)
	}
}

// nIdenticalK5s builds a graph of n disjoint K5 cliques — n byte-identical
// solver pieces (K5 survives peeling at K=4: conflict degree 4, and its
// min cut 4 survives the (K−1)-cut removal), so a memoized solve must
// dispatch exactly one engine call.
func nIdenticalK5s(n int) *Graph {
	b := graph.NewBuilder(5 * n)
	for c := 0; c < n; c++ {
		base := 5 * c
		for i := 0; i < 5; i++ {
			for j := i + 1; j < 5; j++ {
				b.AddConflict(base+i, base+j)
			}
		}
	}
	return &Graph{G: b.Build(nil)}
}

// TestMemoSingleFlightOneDispatchForIdenticalComponents pins the
// concurrency contract: N identical components solved by 8 division
// workers produce exactly 1 real engine dispatch; the other N−1 are tier
// hits, tallied under the engine whose answer they carry, and all N
// pieces count one distinct shape.
func TestMemoSingleFlightOneDispatchForIdenticalComponents(t *testing.T) {
	const n = 48
	dg := nIdenticalK5s(n)
	opts := Options{K: 4, Algorithm: AlgSDPBacktrack, Seed: 1}
	opts.Division.Workers = 8
	res := tierRun(t, dg, opts, freshTier())

	sh := res.DivisionStats.Shapes
	if sh.Misses != 1 || sh.Hits != n-1 || sh.Distinct != 1 {
		t.Fatalf("want 1 miss / %d hits / 1 distinct, got %+v", n-1, sh)
	}
	if want := map[string]int{"SDP+Backtrack": n}; !maps.Equal(res.DivisionStats.Engines, want) {
		t.Fatalf("engines = %v, want %v", res.DivisionStats.Engines, want)
	}
	// And the result must equal the disabled-tier solve of the same graph.
	sameSolve(t, tierRun(t, dg, opts, noTier()), res)
}

// TestMemoizedAutoNeverWorseThanGoldenBest extends the portfolio gate: auto
// through a fresh shape tier still matches the golden best counts on every
// committed circuit — the tier must not change what auto produces.
func TestMemoizedAutoNeverWorseThanGoldenBest(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale committed circuits; skipped in -short mode")
	}
	for circuit, engines := range goldenCounts {
		circuit, engines := circuit, engines
		t.Run(circuit, func(t *testing.T) {
			dg := committedCircuit(t, circuit)
			res := tierRun(t, dg, Options{
				K: 4, Engine: EngineAuto, Seed: 1,
				ILPTimeLimit: 10 * time.Minute,
			}, freshTier())
			best := goldenBest(engines)
			if res.Conflicts > best[0] || (res.Conflicts == best[0] && res.Stitches > best[1]) {
				t.Errorf("memoized auto cn#/st# = %d/%d exceeds golden best %d/%d",
					res.Conflicts, res.Stitches, best[0], best[1])
			}
		})
	}
}

// TestMemoizeNormalizesOff pins the options contract: Memoize is a
// deprecated no-op, so Normalize clears it under every engine policy (and
// equivalent option spellings therefore share cache/session keys).
func TestMemoizeNormalizesOff(t *testing.T) {
	for _, engine := range []string{EngineFixed, EngineAuto} {
		if (Options{K: 4, Engine: engine, Memoize: true}).Normalize().Memoize {
			t.Fatalf("engine %q: Normalize must clear Memoize", engine)
		}
	}
}

// TestShapeTrafficWorkerInvariant: what the tier stores is decided per
// piece, so shape traffic, the engine histogram and Proven are the same at
// any division worker count. On node-capped dense K=5 layouts a capped
// piece used to mark the whole run unproven and block every later store,
// so the count of stored pieces depended on which worker finished first.
func TestShapeTrafficWorkerInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("three full C6288 layouts at K=5; skipped in -short mode")
	}
	spec, _ := synth.ByName("C6288")
	for seed := int64(1); seed <= 3; seed++ {
		dg, err := BuildGraph(synth.GenerateSeeded(spec, 1, seed), BuildOptions{K: 5, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		var runs [2]*Result
		for i, workers := range []int{1, 2} {
			opts := Options{K: 5, Algorithm: AlgSDPBacktrack, Memoize: true}
			opts.Division.Workers = workers
			runs[i] = tierRun(t, dg, opts, freshTier())
		}
		a, b := runs[0], runs[1]
		if a.DivisionStats.Shapes.Hits != b.DivisionStats.Shapes.Hits ||
			a.DivisionStats.Shapes.Misses != b.DivisionStats.Shapes.Misses ||
			!maps.Equal(a.DivisionStats.Engines, b.DivisionStats.Engines) || a.Proven != b.Proven {
			t.Errorf("seed %d: workers 1 gave %+v %v proven=%v, workers 2 gave %+v %v proven=%v", seed,
				a.DivisionStats.Shapes, a.DivisionStats.Engines, a.Proven,
				b.DivisionStats.Shapes, b.DivisionStats.Engines, b.Proven)
		}
	}
}

// TestShapeTierHitEqualsFreshSolve: for every engine the tier admits, a
// solve served entirely from a warm tier equals a disabled-tier solve in
// colors, cn#/st#, Proven and the engine histogram.
func TestShapeTierHitEqualsFreshSolve(t *testing.T) {
	engines := []struct {
		label string
		opts  Options
	}{
		{"linear", Options{K: 4, Algorithm: AlgLinear, Seed: 1}},
		{"sdp-greedy", Options{K: 4, Algorithm: AlgSDPGreedy, Seed: 1}},
		{"sdp-backtrack", Options{K: 4, Algorithm: AlgSDPBacktrack, Seed: 1}},
		{"auto", Options{K: 4, Engine: EngineAuto, Seed: 1, ILPTimeLimit: 10 * time.Minute}},
		{"ilp", Options{K: 4, Algorithm: AlgILP, Seed: 1, ILPTimeLimit: 10 * time.Minute}},
	}
	dg := committedCircuit(t, "C432")
	for _, eng := range engines {
		t.Run(eng.label, func(t *testing.T) {
			if eng.label == "ilp" && raceEnabled {
				t.Skip("exact search is ~25x slower under -race")
			}
			opts := eng.opts
			opts.Division.Workers = 2
			fresh := tierRun(t, dg, opts, noTier())
			tier := freshTier()
			tierRun(t, dg, opts, tier) // warm-up: fills the tier
			warm := tierRun(t, dg, opts, tier)
			sameSolve(t, fresh, warm)
			if sh := warm.DivisionStats.Shapes; sh.Misses != 0 || sh.Hits != warm.DivisionStats.SolverCalls {
				t.Fatalf("warm tier still solved pieces: %+v over %d solver calls", sh, warm.DivisionStats.SolverCalls)
			}
		})
	}

	// A piece whose backtracking search hit its node cap is served but
	// never stored, so the next run solves it again (unproven again).
	t.Run("capped", func(t *testing.T) {
		dg := nIdenticalK5s(4)
		defer func(n int64) { backtrackNodeLimit = n }(backtrackNodeLimit)
		backtrackNodeLimit = 1
		opts := Options{K: 4, Algorithm: AlgSDPBacktrack, Seed: 1}
		tier := freshTier()
		for run := 0; run < 2; run++ {
			res := tierRun(t, dg, opts, tier)
			if res.Proven {
				t.Fatalf("run %d: a 1-node backtracking cap reported proven", run)
			}
			if sh := res.DivisionStats.Shapes; sh.Hits != 0 || sh.Misses != 4 {
				t.Fatalf("run %d: capped pieces were served from the tier: %+v", run, sh)
			}
		}
		if tier.Len() != 0 {
			t.Fatalf("tier stored %d capped pieces", tier.Len())
		}
	})
}
