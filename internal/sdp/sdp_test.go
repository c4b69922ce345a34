package sdp

import (
	"context"
	"math"
	"testing"

	"mpl/internal/graph"
	"mpl/internal/matrix"
	"mpl/internal/pipeline"
)

// solve runs the relaxation with no arena and no restart budget.
func solve(g *graph.Graph, opts Options) *Solution {
	return SolveScratchEnv(context.Background(), g, opts, nil, pipeline.Env{})
}

// norm is the Euclidean length of v.
func norm(v []float64) float64 { return math.Sqrt(matrix.Dot(v, v)) }

func TestColoringVectorsInnerProducts(t *testing.T) {
	// Fig. 3: for K=4, four unit vectors with pairwise inner product −1/3.
	for k := 2; k <= 8; k++ {
		vecs := IdealVectors(k)
		if len(vecs) != k {
			t.Fatalf("K=%d: %d vectors", k, len(vecs))
		}
		want := -1.0 / float64(k-1)
		for i := 0; i < k; i++ {
			if math.Abs(norm(vecs[i])-1) > 1e-9 {
				t.Fatalf("K=%d: vector %d has norm %v", k, i, norm(vecs[i]))
			}
			for j := i + 1; j < k; j++ {
				got := matrix.Dot(vecs[i], vecs[j])
				if math.Abs(got-want) > 1e-9 {
					t.Fatalf("K=%d: inner product (%d,%d) = %v, want %v", k, i, j, got, want)
				}
			}
		}
	}
}

func TestIdealVectorsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("IdealVectors(1) did not panic")
		}
	}()
	IdealVectors(1)
}

func TestEmptyGraph(t *testing.T) {
	sol := solve(graph.NewBuilder(0).Build(nil), Options{K: 4, Alpha: 0.1})
	if len(sol.Vectors) != 0 || sol.Obj != 0 {
		t.Fatalf("empty solve = %+v", sol)
	}
}

func TestSingleVertex(t *testing.T) {
	sol := solve(graph.NewBuilder(1).Build(nil), Options{K: 4, Alpha: 0.1, Seed: 1})
	if len(sol.Vectors) != 1 {
		t.Fatalf("vectors = %d", len(sol.Vectors))
	}
	if math.Abs(norm(sol.Vectors[0])-1) > 1e-9 {
		t.Fatalf("vector not unit: %v", sol.Vectors[0])
	}
}

func TestKInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("K=1 did not panic")
		}
	}()
	solve(graph.NewBuilder(2).Build(nil), Options{K: 1})
}

// TestConflictPairSeparates: two vertices joined by a conflict edge should
// reach x_ij ≈ −1/(K−1), the relaxation optimum.
func TestConflictPairSeparates(t *testing.T) {
	for _, k := range []int{4, 5} {
		b := graph.NewBuilder(2)
		b.AddConflict(0, 1)
		g := b.Build(nil)
		sol := solve(g, Options{K: k, Alpha: 0.1, Seed: 7})
		want := -1.0 / float64(k-1)
		if got := sol.Pair(0, 1); got > want+0.05 {
			t.Fatalf("K=%d: x01 = %v, want ≈ %v", k, got, want)
		}
		if sol.MaxViolation > 0.05 {
			t.Fatalf("K=%d: violation %v", k, sol.MaxViolation)
		}
	}
}

// TestStitchPairAligns: a stitch edge with no conflicts drives x_ij → 1.
func TestStitchPairAligns(t *testing.T) {
	b := graph.NewBuilder(2)
	b.AddStitch(0, 1)
	g := b.Build(nil)
	sol := solve(g, Options{K: 4, Alpha: 0.1, Seed: 3})
	if got := sol.Pair(0, 1); got < 0.99 {
		t.Fatalf("x01 = %v, want ≈ 1", got)
	}
}

// TestK5RelaxationValue: for the complete graph K5 with K=4 colors, any
// coloring has ≥ 1 conflict. The SDP lower bound at the constraint floor is
// Σ x_ij = 10·(−1/3) ≈ −3.33; Eq. (1)'s conflict estimate
// Σ (3/4)(x_ij + 1/3) is then ≥ 0. The solver must reach a near-feasible
// point with objective close to the floor.
func TestK5RelaxationValue(t *testing.T) {
	b := graph.NewBuilder(5)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			b.AddConflict(i, j)
		}
	}
	g := b.Build(nil)
	sol := solve(g, Options{K: 4, Alpha: 0.1, Seed: 11})
	if sol.MaxViolation > 0.05 {
		t.Fatalf("violation = %v", sol.MaxViolation)
	}
	// Feasible floor is −10/3; discrete optimum corresponds to about
	// −10/3 + 4/3 (one same-color pair at +1 instead of −1/3).
	if sol.Obj < -10.0/3-0.1 {
		t.Fatalf("objective %v below the feasible floor", sol.Obj)
	}
	if sol.Obj > -2.0 {
		t.Fatalf("objective %v too far above the relaxation optimum", sol.Obj)
	}
}

// TestK4CliqueSplitsCleanly: K4 with 4 colors is exactly colorable; the
// relaxation should reach ≈ Σ x_ij = 6·(−1/3) = −2 and the Gram matrix must
// be PSD (it is a Gram matrix by construction — the check guards the
// matrix plumbing).
func TestK4CliqueSplitsCleanly(t *testing.T) {
	b := graph.NewBuilder(4)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.AddConflict(i, j)
		}
	}
	g := b.Build(nil)
	sol := solve(g, Options{K: 4, Alpha: 0.1, Seed: 5})
	if math.Abs(sol.Obj-(-2)) > 0.1 {
		t.Fatalf("objective = %v, want ≈ -2", sol.Obj)
	}
	if !sol.X().IsPSD(1e-7) {
		t.Fatal("solution Gram matrix not PSD")
	}
	for i := range sol.Vectors {
		if math.Abs(norm(sol.Vectors[i])-1) > 1e-9 {
			t.Fatalf("vector %d not unit", i)
		}
	}
}

// TestMergeSignalQuality: two disjoint conflict cliques bridged by one
// stitch edge. Vertices inside a 4-clique (with K=4) must be mutually
// separated while the stitch pair stays aligned — the exact signal
// SDP+Backtrack thresholds at 0.9.
func TestMergeSignalQuality(t *testing.T) {
	b := graph.NewBuilder(8)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.AddConflict(i, j)
			b.AddConflict(4+i, 4+j)
		}
	}
	b.AddStitch(3, 4)
	g := b.Build(nil)
	sol := solve(g, Options{K: 4, Alpha: 0.1, Seed: 13})
	if got := sol.Pair(3, 4); got < 0.8 {
		t.Fatalf("stitch pair x = %v, want high", got)
	}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if got := sol.Pair(i, j); got > 0 {
				t.Fatalf("clique pair (%d,%d) x = %v, want ≈ -1/3", i, j, got)
			}
		}
	}
}

// TestDiscreteObjectiveIdentity: Eq. (1)/(3): at discrete points (vectors
// chosen among IdealVectors), (K−1)/K·Σ_CE (x_ij + 1/(K−1)) counts conflicts
// and (K−1)/K·Σ_SE (1 − x_ij) counts stitches (scaled by α).
func TestDiscreteObjectiveIdentity(t *testing.T) {
	for _, k := range []int{4, 5} {
		ideal := IdealVectors(k)
		b := graph.NewBuilder(6)
		b.AddConflict(0, 1)
		b.AddConflict(1, 2)
		b.AddConflict(2, 3)
		b.AddStitch(3, 4)
		b.AddStitch(4, 5)
		colors := []int{0, 1, 1, 0, 0, k - 1} // conflict at (1,2); stitches differ at (3,4)? no: c3=0,c4=0 same; (4,5) differ
		wantConf := 1.0
		wantStitch := 1.0
		scale := float64(k-1) / float64(k)
		confSum, stitSum := 0.0, 0.0
		g := b.Build(nil)
		for _, e := range g.ConflictEdges() {
			x := matrix.Dot(ideal[colors[e.U]], ideal[colors[e.V]])
			confSum += scale * (x + 1.0/float64(k-1))
		}
		for _, e := range g.StitchEdges() {
			x := matrix.Dot(ideal[colors[e.U]], ideal[colors[e.V]])
			stitSum += scale * (1 - x)
		}
		if math.Abs(confSum-wantConf) > 1e-9 {
			t.Fatalf("K=%d: conflict estimate %v, want %v", k, confSum, wantConf)
		}
		if math.Abs(stitSum-wantStitch) > 1e-9 {
			t.Fatalf("K=%d: stitch estimate %v, want %v", k, stitSum, wantStitch)
		}
	}
}

func TestDeterminism(t *testing.T) {
	bld := graph.NewBuilder(6)
	bld.AddConflict(0, 1)
	bld.AddConflict(1, 2)
	bld.AddConflict(2, 0)
	bld.AddStitch(3, 4)
	bld.AddConflict(4, 5)
	g := bld.Build(nil)
	a := solve(g, Options{K: 4, Alpha: 0.1, Seed: 21})
	b := solve(g, Options{K: 4, Alpha: 0.1, Seed: 21})
	for i := range a.Vectors {
		for j := range a.Vectors[i] {
			if a.Vectors[i][j] != b.Vectors[i][j] {
				t.Fatal("same seed produced different solutions")
			}
		}
	}
}

func TestSextupleRelaxation(t *testing.T) {
	// K7 clique with K=6 colors: feasible floor is 21·(−1/5) = −4.2.
	b := graph.NewBuilder(7)
	for i := 0; i < 7; i++ {
		for j := i + 1; j < 7; j++ {
			b.AddConflict(i, j)
		}
	}
	g := b.Build(nil)
	sol := solve(g, Options{K: 6, Alpha: 0.1, Seed: 5})
	if sol.MaxViolation > 0.05 {
		t.Fatalf("violation = %v", sol.MaxViolation)
	}
	if sol.Obj < -4.2-0.1 {
		t.Fatalf("objective %v below feasible floor", sol.Obj)
	}
}

func TestExplicitRankOption(t *testing.T) {
	// The rank is max(K, ⌈√(2n)⌉) capped at n: K=4 on three vertices
	// caps at n.
	b := graph.NewBuilder(3)
	b.AddConflict(0, 1)
	b.AddConflict(1, 2)
	g := b.Build(nil)
	sol := solve(g, Options{K: 4, Alpha: 0.1, Seed: 2})
	if len(sol.Vectors[0]) != 3 {
		t.Fatalf("rank = %d, want capped at n=3", len(sol.Vectors[0]))
	}
}

func TestSolveScratchMatchesSolveContext(t *testing.T) {
	// Pooled workspace must be a pure memory-placement change: the
	// deterministic restart trajectory — and therefore every Gram entry —
	// is bit-identical with and without a scratch arena, and across
	// repeated solves on one arena (stale contents must never leak in).
	b := graph.NewBuilder(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 5}, {5, 3}} {
		b.AddConflict(e[0], e[1])
	}
	b.AddStitch(1, 3)
	opts := Options{K: 4, Alpha: 0.1, Seed: 7}
	g := b.Build(nil)
	ref := solve(g, opts)
	sc := pipeline.NewScratchPool().Get()
	for round := 0; round < 3; round++ {
		got := SolveScratchEnv(context.Background(), g, opts, sc, pipeline.Env{})
		if got.Obj != ref.Obj || got.MaxViolation != ref.MaxViolation {
			t.Fatalf("round %d: obj/viol %v/%v != reference %v/%v", round, got.Obj, got.MaxViolation, ref.Obj, ref.MaxViolation)
		}
		for i := range ref.Vectors {
			for j := range ref.Vectors[i] {
				if got.Vectors[i][j] != ref.Vectors[i][j] {
					t.Fatalf("round %d: vector (%d,%d) = %v, want %v", round, i, j, got.Vectors[i][j], ref.Vectors[i][j])
				}
			}
		}
	}
}
