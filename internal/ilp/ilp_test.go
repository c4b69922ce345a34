package ilp

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"mpl/internal/lp"
)

// binaryProblem returns a problem whose variables are all binary.
func binaryProblem(numVars int) *Problem {
	p := &Problem{
		LP:     lp.Problem{NumVars: numVars, Objective: make([]float64, numVars)},
		Binary: make([]bool, numVars),
	}
	for i := range p.Binary {
		p.Binary[i] = true
	}
	return p
}

// solve runs the search with no deadline.
func solve(p *Problem) Result { return SolveContext(context.Background(), p) }

func TestKnapsack(t *testing.T) {
	// max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6  → a=1,c=1 (17) vs b=1,c=1 (20).
	// Best: b + c = 20. Minimize the negation.
	p := binaryProblem(3)
	p.LP.Objective = []float64{-10, -13, -7}
	p.LP.AddConstraint(lp.LE, 6, lp.Term{Var: 0, Coef: 3}, lp.Term{Var: 1, Coef: 4}, lp.Term{Var: 2, Coef: 2})
	r := solve(p)
	if r.Status != Optimal {
		t.Fatalf("status = %v", r.Status)
	}
	if math.Abs(r.Obj+20) > 1e-6 {
		t.Fatalf("obj = %v, want -20 (x=%v)", r.Obj, r.X)
	}
	if r.X[1] != 1 || r.X[2] != 1 || r.X[0] != 0 {
		t.Fatalf("x = %v", r.X)
	}
}

func TestInfeasibleILP(t *testing.T) {
	p := binaryProblem(2)
	p.LP.AddConstraint(lp.GE, 3, lp.Term{Var: 0, Coef: 1}, lp.Term{Var: 1, Coef: 1})
	if r := solve(p); r.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", r.Status)
	}
}

func TestEqualityILP(t *testing.T) {
	// Exactly two of four variables, minimizing weights.
	p := binaryProblem(4)
	p.LP.Objective = []float64{5, 1, 3, 2}
	p.LP.AddConstraint(lp.EQ, 2,
		lp.Term{Var: 0, Coef: 1}, lp.Term{Var: 1, Coef: 1},
		lp.Term{Var: 2, Coef: 1}, lp.Term{Var: 3, Coef: 1})
	r := solve(p)
	if r.Status != Optimal || math.Abs(r.Obj-3) > 1e-6 {
		t.Fatalf("r = %+v, want obj 3 (vars 1 and 3)", r)
	}
}

func TestVertexCoverTriangle(t *testing.T) {
	// Min vertex cover of a triangle = 2.
	p := binaryProblem(3)
	p.LP.Objective = []float64{1, 1, 1}
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}} {
		p.LP.AddConstraint(lp.GE, 1, lp.Term{Var: e[0], Coef: 1}, lp.Term{Var: e[1], Coef: 1})
	}
	r := solve(p)
	if r.Status != Optimal || math.Abs(r.Obj-2) > 1e-6 {
		t.Fatalf("r = %+v", r)
	}
}

func TestTimeLimit(t *testing.T) {
	// A tight context deadline on a nontrivial problem must not report
	// Optimal (either Feasible or TimedOut) and must return quickly.
	rng := rand.New(rand.NewSource(9))
	n := 18
	p := binaryProblem(n)
	for j := 0; j < n; j++ {
		p.LP.Objective[j] = -float64(1 + rng.Intn(9))
	}
	for c := 0; c < 10; c++ {
		var terms []lp.Term
		for j := 0; j < n; j++ {
			if rng.Intn(2) == 0 {
				terms = append(terms, lp.Term{Var: j, Coef: float64(1 + rng.Intn(4))})
			}
		}
		if terms != nil {
			p.LP.AddConstraint(lp.LE, float64(3+rng.Intn(5)), terms...)
		}
	}
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	r := SolveContext(ctx, p)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline ignored: ran %v", elapsed)
	}
	if r.Status == Optimal && r.Nodes > 20 {
		t.Fatalf("unexpected optimal with %d nodes under 1ns deadline", r.Nodes)
	}
}

func TestMismatchedBinaryMaskPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mask mismatch did not panic")
		}
	}()
	p := &Problem{LP: lp.Problem{NumVars: 3, Objective: []float64{0, 0, 0}}, Binary: []bool{true}}
	solve(p)
}

func TestStatusString(t *testing.T) {
	if Optimal.String() != "optimal" || Feasible.String() != "feasible" ||
		Infeasible.String() != "infeasible" || TimedOut.String() != "timed-out" ||
		Status(9).String() != "unknown" {
		t.Fatal("Status.String mismatch")
	}
}

// TestRandomKnapsacksExact: ILP matches brute-force enumeration on random
// binary problems (the core exactness property Table 1 relies on).
func TestRandomKnapsacksExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(9)
		p := binaryProblem(n)
		for j := 0; j < n; j++ {
			p.LP.Objective[j] = float64(rng.Intn(21) - 10)
		}
		nc := 1 + rng.Intn(4)
		for c := 0; c < nc; c++ {
			var terms []lp.Term
			for j := 0; j < n; j++ {
				if rng.Intn(2) == 0 {
					terms = append(terms, lp.Term{Var: j, Coef: float64(rng.Intn(7) - 3)})
				}
			}
			if terms == nil {
				continue
			}
			ops := []lp.Op{lp.LE, lp.GE}
			p.LP.AddConstraint(ops[rng.Intn(2)], float64(rng.Intn(9)-2), terms...)
		}
		r := solve(p)

		// Brute force.
		best := math.Inf(1)
		for mask := 0; mask < 1<<n; mask++ {
			ok := true
			for _, c := range p.LP.Constraints {
				lhs := 0.0
				for _, term := range c.Terms {
					if mask&(1<<term.Var) != 0 {
						lhs += term.Coef
					}
				}
				switch c.Op {
				case lp.LE:
					ok = ok && lhs <= c.RHS+1e-9
				case lp.GE:
					ok = ok && lhs >= c.RHS-1e-9
				case lp.EQ:
					ok = ok && math.Abs(lhs-c.RHS) < 1e-9
				}
			}
			if !ok {
				continue
			}
			obj := 0.0
			for j := 0; j < n; j++ {
				if mask&(1<<j) != 0 {
					obj += p.LP.Objective[j]
				}
			}
			if obj < best {
				best = obj
			}
		}
		if math.IsInf(best, 1) {
			if r.Status != Infeasible {
				t.Fatalf("trial %d: brute says infeasible, solver %v obj %v", trial, r.Status, r.Obj)
			}
			continue
		}
		if r.Status != Optimal {
			t.Fatalf("trial %d: status %v, want optimal", trial, r.Status)
		}
		if math.Abs(r.Obj-best) > 1e-6 {
			t.Fatalf("trial %d: obj %v, brute force %v", trial, r.Obj, best)
		}
	}
}

func TestMixedContinuousBinary(t *testing.T) {
	// min -x0 - 0.5y with x0 binary, y continuous >= 0, x0 + y <= 1.5:
	// optimum x0=1, y=0.5 → obj -1.25.
	p := &Problem{
		LP:     lp.Problem{NumVars: 2, Objective: []float64{-1, -0.5}},
		Binary: []bool{true, false},
	}
	p.LP.AddConstraint(lp.LE, 1.5, lp.Term{Var: 0, Coef: 1}, lp.Term{Var: 1, Coef: 1})
	r := solve(p)
	if r.Status != Optimal || math.Abs(r.Obj+1.25) > 1e-6 {
		t.Fatalf("r = %+v", r)
	}
	if r.X[0] != 1 || math.Abs(r.X[1]-0.5) > 1e-6 {
		t.Fatalf("x = %v", r.X)
	}
}

func TestAllZeroObjective(t *testing.T) {
	// Pure feasibility: any integer point satisfying x0 + x1 >= 1.
	p := binaryProblem(2)
	p.LP.AddConstraint(lp.GE, 1, lp.Term{Var: 0, Coef: 1}, lp.Term{Var: 1, Coef: 1})
	r := solve(p)
	if r.Status != Optimal {
		t.Fatalf("status = %v", r.Status)
	}
	if r.X[0]+r.X[1] < 1-1e-9 {
		t.Fatalf("infeasible point %v", r.X)
	}
}
