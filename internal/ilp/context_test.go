package ilp

import (
	"context"
	"math"
	"testing"
	"time"

	"mpl/internal/lp"
)

// triangleCover is a problem whose LP relaxation is fractional (½,½,½), so
// the search must branch — enough work that cancellation has something to
// interrupt.
func triangleCover() *Problem {
	p := binaryProblem(3)
	p.LP.Objective = []float64{1, 1, 1}
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}} {
		p.LP.AddConstraint(lp.GE, 1, lp.Term{Var: e[0], Coef: 1}, lp.Term{Var: e[1], Coef: 1})
	}
	return p
}

// TestSolveContextPreCancelled is the regression test for moving the
// context out of Options (the Ctx field ctxflow flagged) into an explicit
// SolveContext parameter: a context cancelled before the call must stop
// the search at the very first node check, before any incumbent exists.
func TestSolveContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := SolveContext(ctx, triangleCover())
	if r.Status != TimedOut {
		t.Fatalf("status = %v, want timed-out for a pre-cancelled context", r.Status)
	}
	if r.Nodes != 0 {
		t.Fatalf("nodes = %d, want 0: cancellation must precede the first node", r.Nodes)
	}
}

// TestSolveContextDeadline: an already-expired deadline behaves like the
// pre-cancelled case.
func TestSolveContextDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	r := SolveContext(ctx, triangleCover())
	if r.Status == Optimal {
		t.Fatalf("status = %v under an expired deadline", r.Status)
	}
}

// TestSolveMatchesSolveContext: a deadline that does not expire must not
// perturb the search — the same status, objective, node count and
// assignment as a background context, byte for byte the contract the
// golden tests assume now that the ILP budget is a context deadline.
func TestSolveMatchesSolveContext(t *testing.T) {
	build := func() *Problem {
		p := binaryProblem(3)
		p.LP.Objective = []float64{-10, -13, -7}
		p.LP.AddConstraint(lp.LE, 6, lp.Term{Var: 0, Coef: 3}, lp.Term{Var: 1, Coef: 4}, lp.Term{Var: 2, Coef: 2})
		return p
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	a := SolveContext(ctx, build())
	b := SolveContext(context.Background(), build())
	if a.Status != b.Status || math.Abs(a.Obj-b.Obj) > 1e-12 || a.Nodes != b.Nodes {
		t.Fatalf("under a deadline %+v != background %+v", a, b)
	}
	for i := range a.X {
		if a.X[i] != b.X[i] {
			t.Fatalf("x[%d]: %v != %v", i, a.X[i], b.X[i])
		}
	}
}

// TestSolveContextUncancelledIsExact: threading a live context must not
// perturb the search — the triangle cover still proves optimality.
func TestSolveContextUncancelledIsExact(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	r := SolveContext(ctx, triangleCover())
	if r.Status != Optimal || math.Abs(r.Obj-2) > 1e-6 {
		t.Fatalf("r = %+v, want proven cover of size 2", r)
	}
}
