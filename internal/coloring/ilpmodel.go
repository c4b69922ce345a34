package coloring

import (
	"context"

	"mpl/internal/graph"
	"mpl/internal/ilp"
	"mpl/internal/lp"
)

// ILPResult reports an exact ILP color assignment.
type ILPResult struct {
	Colors []int
	// Proven is true when the branch-and-bound search completed and the
	// assignment is optimal. When false the search timed out; Colors holds
	// the incumbent (or a greedy fallback) — Table 1 reports such rows as
	// "N/A" for the paper's 3600 s budget.
	Proven bool
	Status ilp.Status
}

// ILPAssignContext solves the component exactly via integer linear
// programming, the paper's baseline (extended from the triple-patterning
// ILP of Yu et al. ICCAD'11 to K masks). The encoding is one-hot:
//
//	y_{v,c} ∈ {0,1}   vertex v uses color c;  Σ_c y_{v,c} = 1
//	conf_e ≥ y_{u,c} + y_{v,c} − 1            ∀ conflict e=(u,v), ∀ c
//	stit_e ≥ ±(y_{u,c} − y_{v,c})             ∀ stitch e=(u,v), ∀ c
//	min  Σ conf_e + α·Σ stit_e
//
// conf/stit variables relax to continuous values because minimization
// forces them onto {0,1} whenever the y's are integral. The time budget is
// ctx's deadline: the branch-and-bound search polls ctx at every node, and
// on cancellation or expiry the incumbent (or the greedy fallback) is
// returned with Proven=false.
func ILPAssignContext(ctx context.Context, g *graph.Graph, k int, alpha float64) ILPResult {
	n := g.N()
	if n == 0 {
		return ILPResult{Colors: []int{}, Proven: true, Status: ilp.Optimal}
	}
	ce := g.ConflictEdges()
	se := g.StitchEdges()

	yVar := func(v, c int) int { return v*k + c }
	confVar := func(ei int) int { return n*k + ei }
	stitVar := func(si int) int { return n*k + len(ce) + si }
	numVars := n*k + len(ce) + len(se)

	prob := &ilp.Problem{
		LP:     lp.Problem{NumVars: numVars, Objective: make([]float64, numVars)},
		Binary: make([]bool, numVars),
	}
	for v := 0; v < n; v++ {
		for c := 0; c < k; c++ {
			prob.Binary[yVar(v, c)] = true
		}
	}
	for ei := range ce {
		prob.LP.Objective[confVar(ei)] = 1
	}
	for si := range se {
		prob.LP.Objective[stitVar(si)] = alpha
	}

	// One color per vertex.
	for v := 0; v < n; v++ {
		terms := make([]lp.Term, k)
		for c := 0; c < k; c++ {
			terms[c] = lp.Term{Var: yVar(v, c), Coef: 1}
		}
		prob.LP.AddConstraint(lp.EQ, 1, terms...)
	}
	// Conflict detection.
	for ei, e := range ce {
		for c := 0; c < k; c++ {
			prob.LP.AddConstraint(lp.LE, 1,
				lp.Term{Var: yVar(e.U, c), Coef: 1},
				lp.Term{Var: yVar(e.V, c), Coef: 1},
				lp.Term{Var: confVar(ei), Coef: -1})
		}
	}
	// Stitch detection.
	for si, e := range se {
		for c := 0; c < k; c++ {
			prob.LP.AddConstraint(lp.LE, 0,
				lp.Term{Var: yVar(e.U, c), Coef: 1},
				lp.Term{Var: yVar(e.V, c), Coef: -1},
				lp.Term{Var: stitVar(si), Coef: -1})
			prob.LP.AddConstraint(lp.LE, 0,
				lp.Term{Var: yVar(e.V, c), Coef: 1},
				lp.Term{Var: yVar(e.U, c), Coef: -1},
				lp.Term{Var: stitVar(si), Coef: -1})
		}
	}
	// Symmetry breaking: pin the first vertex to color 0.
	prob.LP.AddConstraint(lp.EQ, 1, lp.Term{Var: yVar(0, 0), Coef: 1})

	res := ilp.SolveContext(ctx, prob)
	out := ILPResult{Status: res.Status, Proven: res.Status == ilp.Optimal}
	if res.X != nil {
		colors := make([]int, n)
		for v := 0; v < n; v++ {
			colors[v] = 0
			for c := 0; c < k; c++ {
				if res.X[yVar(v, c)] > 0.5 {
					colors[v] = c
					break
				}
			}
		}
		out.Colors = colors
		return out
	}
	// No incumbent within budget: fall back to a greedy coloring so the
	// caller still gets a usable (unproven) assignment.
	w := FromGraph(g)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	out.Colors = w.greedyColors(order, k, alpha)
	return out
}
