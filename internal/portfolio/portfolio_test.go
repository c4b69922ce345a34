package portfolio

import (
	"testing"

	"mpl/internal/graph"
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
