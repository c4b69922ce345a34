package portfolio

import (
	"context"
	"testing"
	"time"

	"mpl/internal/graph"
	"mpl/internal/pipeline"
)

func path(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddConflict(i, i+1)
	}
	return b.Build(nil)
}

func clique(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddConflict(i, j)
		}
	}
	return b.Build(nil)
}

func TestAnalyze(t *testing.T) {
	p := Analyze(path(5))
	if p.N != 5 || p.ConflictEdges != 4 || p.OddEdges != 0 {
		t.Fatalf("path profile %+v", p)
	}
	tri := Analyze(clique(3))
	if tri.OddEdges == 0 {
		t.Fatalf("a triangle closes an odd cycle: %+v", tri)
	}
	k5 := Analyze(clique(5))
	if k5.N != 5 || k5.ConflictEdges != 10 || k5.OddEdges == 0 {
		t.Fatalf("K5 profile %+v", k5)
	}
	// Deterministic: same graph, same profile.
	if Analyze(clique(5)) != k5 {
		t.Fatal("Analyze is not deterministic")
	}
}

func TestSelectThresholds(t *testing.T) {
	cases := []struct {
		p    Profile
		want Class
	}{
		{Profile{N: 5, ConflictEdges: 10, OddEdges: 4}, ILP},                // K5 cross
		{Profile{N: 16, ConflictEdges: 43, OddEdges: 13}, ILP},              // committed-circuit core
		{Profile{N: 16, ConflictEdges: 16}, SDPBacktrack},                   // bipartite: exact search buys nothing
		{Profile{N: 16, ConflictEdges: 58, OddEdges: 21}, SDPBacktrack},     // too dense for exact (13 s measured)
		{Profile{N: 20, ConflictEdges: 56, OddEdges: 16}, SDPBacktrack},     // past the size cliff (3.4 s measured)
		{Profile{N: 2500, ConflictEdges: 4000, OddEdges: 40}, SDPBacktrack}, // mid tier
		{Profile{N: 5000, ConflictEdges: 9000, OddEdges: 90}, SDPGreedy},    // past BacktrackMaxN
		{Profile{N: 100000, ConflictEdges: 150000, OddEdges: 99}, Linear},   // past GreedyMaxN
	}
	for _, c := range cases {
		if got := Select(c.p); got != c.want {
			t.Errorf("Select(%+v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestRacePair(t *testing.T) {
	if p, s := RacePair(Profile{N: 5, ConflictEdges: 10, OddEdges: 4}); p != ILP || s != SDPBacktrack {
		t.Errorf("ILP-tier pair = (%v, %v)", p, s)
	}
	if p, s := RacePair(Profile{N: 30, ConflictEdges: 60}); p != SDPBacktrack || s != ILP {
		t.Errorf("near-tier pair = (%v, %v)", p, s)
	}
	if p, s := RacePair(Profile{N: 500, ConflictEdges: 900}); p != SDPBacktrack || s != Linear {
		t.Errorf("mid pair = (%v, %v)", p, s)
	}
	if p, s := RacePair(Profile{N: 5000, ConflictEdges: 9000}); p != SDPGreedy || s != Linear {
		t.Errorf("large pair = (%v, %v)", p, s)
	}
}

// raceGraph is a triangle: small, with an odd cycle, so its profile lands
// in the ILP tier and the race pair is (ILP primary, SDPBacktrack
// secondary). Colorings of length 3 cost 1 per same-colored edge.
func raceGraph() *graph.Graph { return clique(3) }

// stub builds an engine that waits for delay (or ctx) and returns colors.
func stub(delay time.Duration, colors []int) Solver {
	return func(ctx context.Context, g *graph.Graph, _ *pipeline.Scratch) []int {
		select {
		case <-time.After(delay):
		case <-ctx.Done():
		}
		return colors
	}
}

func TestRaceFirstProvablyOptimalWinsAndCancelsLoser(t *testing.T) {
	g := raceGraph()
	cancelled := make(chan struct{})
	var engines [NumClasses]Solver
	// Primary (ILP) would take forever; it must be cancelled.
	engines[ILP] = func(ctx context.Context, _ *graph.Graph, _ *pipeline.Scratch) []int {
		<-ctx.Done()
		close(cancelled)
		return []int{0, 0, 0} // cost-3 incumbent
	}
	engines[SDPBacktrack] = stub(0, []int{0, 1, 2}) // cost 0, instant
	colors, out := Race(context.Background(), g, 0.1, 0, engines, pipeline.Env{})
	if !out.ProvenOptimal || out.Winner != SDPBacktrack {
		t.Fatalf("outcome %+v", out)
	}
	if colors[0] == colors[1] {
		t.Fatalf("kept the losing coloring %v", colors)
	}
	select {
	case <-cancelled:
	case <-time.After(2 * time.Second):
		t.Fatal("loser was never cancelled")
	}
}

func TestRaceTieGoesToPrimary(t *testing.T) {
	g := raceGraph()
	var engines [NumClasses]Solver
	// Both colorings cost 3 (all vertices share a color); the secondary
	// finishes long before the primary, but a tie must keep the primary so
	// race degenerates to auto deterministically.
	engines[ILP] = stub(30*time.Millisecond, []int{1, 1, 1})
	engines[SDPBacktrack] = stub(0, []int{2, 2, 2})
	colors, out := Race(context.Background(), g, 0.1, 0, engines, pipeline.Env{})
	if out.Winner != ILP || out.ProvenOptimal {
		t.Fatalf("outcome %+v", out)
	}
	if colors[0] != 1 {
		t.Fatalf("tie did not keep the primary's coloring: %v", colors)
	}
}

func TestRaceStrictlyBetterSecondaryWins(t *testing.T) {
	g := raceGraph() // triangle: primary ILP, secondary SDPBacktrack
	var engines [NumClasses]Solver
	engines[ILP] = stub(0, []int{0, 0, 0})          // cost 3 (all edges conflict)
	engines[SDPBacktrack] = stub(0, []int{0, 1, 1}) // cost 1 — strictly better, nonzero
	colors, out := Race(context.Background(), g, 0.1, 0, engines, pipeline.Env{})
	if out.Winner != SDPBacktrack || out.ProvenOptimal {
		t.Fatalf("outcome %+v, colors %v", out, colors)
	}
}

func TestRaceBudgetBoundsTheRace(t *testing.T) {
	g := raceGraph()
	var engines [NumClasses]Solver
	// Both racers only return on cancellation; without the budget the race
	// would hang. Their incumbents tie, so the primary wins.
	engines[ILP] = stub(time.Hour, []int{0, 0, 0})
	engines[SDPBacktrack] = stub(time.Hour, []int{1, 1, 1})
	start := time.Now()
	_, out := Race(context.Background(), g, 0.1, 50*time.Millisecond, engines, pipeline.Env{})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("race ran %v past a 50ms budget", elapsed)
	}
	if out.Winner != ILP {
		t.Fatalf("outcome %+v", out)
	}
}
