// Package ilp implements a 0/1 integer linear programming solver by
// branch-and-bound over LP relaxations (package lp). It substitutes for the
// GUROBI solver the DAC'14 paper uses for its exact ILP baseline: exact when
// it finishes, and — like the paper's Table 1, where the four largest cases
// report "N/A (>3600s)" — it honors a wall-clock budget, given as a context
// deadline, and reports whether the incumbent is proven optimal.
package ilp

import (
	"context"
	"math"

	"mpl/internal/lp"
)

// Problem is a minimization ILP: the embedded LP plus a set of variables
// restricted to {0, 1}. Non-binary variables remain continuous ≥ 0.
type Problem struct {
	LP     lp.Problem
	Binary []bool // len == LP.NumVars
}

// Status describes the solve outcome.
type Status int

// Solve outcomes.
const (
	// Optimal means the incumbent is proven optimal.
	Optimal Status = iota
	// Feasible means the context ended the search with an incumbent that
	// is feasible but not proven optimal.
	Feasible
	// Infeasible means the problem has no integer solution.
	Infeasible
	// TimedOut means the context ended the search before any integer
	// solution was found.
	TimedOut
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case TimedOut:
		return "timed-out"
	}
	return "unknown"
}

// Result is the outcome of a branch-and-bound run.
type Result struct {
	Status Status
	X      []float64
	Obj    float64
	Nodes  int // explored branch-and-bound nodes
}

const intTol = 1e-6

// SolveContext runs best-effort exact branch-and-bound. ctx is the budget:
// it is polled before every node, and on cancellation or deadline expiry
// the incumbent is returned with a Feasible status (TimedOut when there is
// none).
func SolveContext(ctx context.Context, p *Problem) Result {
	if len(p.Binary) != p.LP.NumVars {
		panic("ilp: Binary mask length mismatch")
	}
	s := &searcher{
		prob:    p,
		bestObj: math.Inf(1),
		done:    ctx.Done(),
	}

	// Box constraints x_j <= 1 for binary variables, shared by every node.
	base := p.LP
	base.Constraints = append([]lp.Constraint(nil), p.LP.Constraints...)
	for j, isBin := range p.Binary {
		if isBin {
			base.Constraints = append(base.Constraints,
				lp.Constraint{Terms: []lp.Term{{Var: j, Coef: 1}}, Op: lp.LE, RHS: 1})
		}
	}
	s.base = base
	fixed := make([]int8, p.LP.NumVars) // -1 unfixed is 0 value; use 0=unfixed,1=zero,2=one
	s.branch(fixed)

	switch {
	case s.bestX != nil && !s.stopped:
		return Result{Status: Optimal, X: s.bestX, Obj: s.bestObj, Nodes: s.nodes}
	case s.bestX != nil:
		return Result{Status: Feasible, X: s.bestX, Obj: s.bestObj, Nodes: s.nodes}
	case s.stopped:
		return Result{Status: TimedOut, Nodes: s.nodes}
	default:
		return Result{Status: Infeasible, Nodes: s.nodes}
	}
}

type searcher struct {
	prob    *Problem
	base    lp.Problem
	done    <-chan struct{}
	nodes   int
	bestObj float64
	bestX   []float64
	stopped bool
}

func (s *searcher) timeUp() bool {
	if s.stopped {
		return true
	}
	if s.done != nil {
		select {
		case <-s.done:
			s.stopped = true
			return true
		default:
		}
	}
	return false
}

// branch explores the subproblem with the given variable fixings
// (0 = unfixed, 1 = fixed to zero, 2 = fixed to one).
func (s *searcher) branch(fixed []int8) {
	if s.timeUp() {
		return
	}
	s.nodes++

	// Assemble the node LP: base plus fixing constraints.
	node := s.base
	node.Constraints = append([]lp.Constraint(nil), s.base.Constraints...)
	for j, f := range fixed {
		switch f {
		case 1:
			node.Constraints = append(node.Constraints,
				lp.Constraint{Terms: []lp.Term{{Var: j, Coef: 1}}, Op: lp.LE, RHS: 0})
		case 2:
			node.Constraints = append(node.Constraints,
				lp.Constraint{Terms: []lp.Term{{Var: j, Coef: 1}}, Op: lp.GE, RHS: 1})
		}
	}
	rel := lp.Solve(&node)
	switch rel.Status {
	case lp.Infeasible:
		return
	case lp.Unbounded:
		// With all-binary variables this cannot happen; for mixed problems
		// treat as a dead end conservatively... an unbounded relaxation
		// admits arbitrarily good integer solutions only if one exists; we
		// cannot certify, so we abandon the node.
		return
	case lp.IterLimit:
		s.stopped = true
		return
	}
	if rel.Obj >= s.bestObj-1e-9 {
		return // bound: cannot improve the incumbent
	}

	// Find the most fractional binary variable.
	branchVar := -1
	worst := intTol
	for j, isBin := range s.prob.Binary {
		if !isBin || fixed[j] != 0 {
			continue
		}
		frac := math.Abs(rel.X[j] - math.Round(rel.X[j]))
		if frac > worst {
			worst = frac
			branchVar = j
		}
	}
	if branchVar < 0 {
		// Integral (on binaries): candidate incumbent. Round binaries exactly.
		x := append([]float64(nil), rel.X...)
		for j, isBin := range s.prob.Binary {
			if isBin {
				x[j] = math.Round(x[j])
			}
		}
		if rel.Obj < s.bestObj {
			s.bestObj = rel.Obj
			s.bestX = x
		}
		return
	}

	// Dive toward the nearer bound first: better incumbents earlier.
	first, second := int8(1), int8(2)
	if rel.X[branchVar] >= 0.5 {
		first, second = 2, 1
	}
	for _, dir := range []int8{first, second} {
		child := append([]int8(nil), fixed...)
		child[branchVar] = dir
		s.branch(child)
		if s.stopped {
			return
		}
	}
}
