package sdp_test

// Byte-identity matrix for the parallel restart fan-out: on real component
// graphs cut from the committed benchmark circuits, SolveScratchEnv with a
// parallelism budget must return bit-for-bit the vectors and objective of
// the serial solve — at every K and every restart-worker count. This is the
// tentpole's contract (parallel restarts are a scheduling change, not a
// numerical one), pinned on the workload it exists for: components large
// enough to clear the fan-out's minimum-edges floor.

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"testing"

	"mpl/internal/core"
	"mpl/internal/graph"
	"mpl/internal/layout"
	"mpl/internal/pipeline"
	"mpl/internal/sdp"
)

// circuitComponents cuts the largest connected components (by conflict+
// stitch edge count) out of a committed circuit's decomposition graph —
// the exact shapes the dispatch stage hands to the SDP engine.
func circuitComponents(t testing.TB, name string, take int) []*graph.Graph {
	t.Helper()
	l, err := layout.ReadAny(filepath.Join("..", "..", "benchmarks", name+".lay"))
	if err != nil {
		t.Fatal(err)
	}
	dg, err := core.BuildGraph(l, core.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var subs []*graph.Graph
	for _, c := range dg.G.Components() {
		sub := dg.G.Subgraph(c, nil)
		subs = append(subs, sub)
	}
	edges := func(g *graph.Graph) int { return len(g.ConflictEdges()) + len(g.StitchEdges()) }
	sort.SliceStable(subs, func(a, b int) bool { return edges(subs[a]) > edges(subs[b]) })
	if len(subs) > take {
		subs = subs[:take]
	}
	// The fan-out only engages above its minimum-edges floor; the test is
	// vacuous if the circuit's biggest component is below it.
	if edges(subs[0]) < 32 {
		t.Fatalf("%s: largest component has %d edges, below the fan-out floor", name, edges(subs[0]))
	}
	return subs
}

// BenchmarkSDPRestarts measures the sdp.Restarts restart loop serially and
// with the budgeted fan-out on the committed suite's biggest single
// component — the one-huge-component straggler shape. CI's bench-smoke job
// publishes both lines; the parallel/serial wall-time ratio is the dispatch
// win on a one-huge-component workload.
func BenchmarkSDPRestarts(b *testing.B) {
	g := circuitComponents(b, "C880", 1)[0]
	opts := sdp.Options{K: 4, Alpha: 0.1, Seed: 7}
	pool := pipeline.NewScratchPool()
	run := func(b *testing.B, env pipeline.Env) {
		sc := pool.Get()
		defer pool.Put(sc)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sdp.SolveScratchEnv(context.Background(), g, opts, sc, env)
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, pipeline.Env{Scratch: pool}) })
	b.Run("parallel8", func(b *testing.B) { run(b, restartBudget(pool, 8)) })
}

// restartBudget builds the environment a solve sees when `workers` division
// workers share the pool and all but the caller have gone idle: workers−1
// deposited slots for the restart fan-out to claim.
func restartBudget(pool *pipeline.ScratchPool, workers int) pipeline.Env {
	env := pipeline.Env{Scratch: pool, Budget: pipeline.NewBudget(workers)}
	for i := 0; i < workers-1; i++ {
		env.Budget.Free()
	}
	return env
}

func TestParallelRestartsByteIdentical(t *testing.T) {
	pool := pipeline.NewScratchPool()
	for _, name := range []string{"C432", "C880"} {
		for ci, g := range circuitComponents(t, name, 2) {
			for _, k := range []int{3, 4} {
				opts := sdp.Options{K: k, Alpha: 0.1, Seed: 7}
				ref := sdp.SolveScratchEnv(context.Background(), g, opts, nil, pipeline.Env{})
				for _, workers := range []int{1, 2, 8} {
					t.Run(fmt.Sprintf("%s/comp%d/K%d/w%d", name, ci, k, workers), func(t *testing.T) {
						sc := pool.Get()
						defer pool.Put(sc)
						got := sdp.SolveScratchEnv(context.Background(), g, opts, sc, restartBudget(pool, workers))
						if got.Obj != ref.Obj || got.MaxViolation != ref.MaxViolation {
							t.Fatalf("obj/viol %v/%v != serial %v/%v", got.Obj, got.MaxViolation, ref.Obj, ref.MaxViolation)
						}
						for i := range ref.Vectors {
							for j := range ref.Vectors[i] {
								if got.Vectors[i][j] != ref.Vectors[i][j] {
									t.Fatalf("vector (%d,%d) = %v, want %v", i, j, got.Vectors[i][j], ref.Vectors[i][j])
								}
							}
						}
					})
				}
			}
		}
	}
}

// TestParallelRestartsRespectBudget pins the worker-budget invariant from
// the solve's side: with a budget of w, at most w−1 extra slots exist, so
// a solve with more restarts than slots (sdp.Restarts > w) claims no more
// than the pool offers and returns every claimed slot when it finishes.
func TestParallelRestartsRespectBudget(t *testing.T) {
	g := circuitComponents(t, "C432", 1)[0]
	pool := pipeline.NewScratchPool()
	env := restartBudget(pool, 2)
	sc := pool.Get()
	defer pool.Put(sc)
	sdp.SolveScratchEnv(context.Background(), g, sdp.Options{K: 4, Alpha: 0.1, Seed: 7}, sc, env)
	// The deposited slot must be back: claim it, then verify the pool is
	// dry (a second claim would mean the solve minted a slot).
	if !env.Budget.TryAcquire() {
		t.Fatal("solve did not return its claimed budget slot")
	}
	if env.Budget.TryAcquire() {
		t.Fatal("budget holds more slots than were deposited")
	}
}
