// Package sdp solves the semidefinite relaxation at the core of the DAC'14
// framework (Eq. (2) for quadruple patterning, Eq. (3) for general K):
//
//	min  Σ_{e_ij ∈ CE} v_i·v_j  −  α · Σ_{e_ij ∈ SE} v_i·v_j
//	s.t. v_i·v_i  =  1            ∀ i ∈ V
//	     v_i·v_j  ≥ −1/(K−1)      ∀ e_ij ∈ CE
//
// The paper solves this with the interior-point solver CSDP. This package
// substitutes a low-rank Burer–Monteiro formulation: the PSD matrix X is
// factored as X = VᵀV with V ∈ R^{r×n}, the unit-norm constraints are
// enforced by explicit renormalization (a Riemannian projection), and the
// conflict-edge inequalities by a smooth quadratic penalty with an
// escalating weight. Projected gradient descent with backtracking line
// search and deterministic multi-restart then minimizes the objective.
// Downstream consumers (SDP+Backtrack's t_th = 0.9 merge threshold,
// SDP+Greedy's descending-x_ij union order) only need the Gram entries
// x_ij = v_i·v_j to near-optimal accuracy, which this delivers on the small
// per-component problems produced by graph division. See DESIGN.md §2 for
// the substitution rationale.
package sdp

import (
	"context"
	"math"
	"math/rand"

	"mpl/internal/graph"
	"mpl/internal/matrix"
	"mpl/internal/pipeline"
)

// Options configures a relaxation solve.
type Options struct {
	// K is the number of masks (colors); must be ≥ 2. The conflict target
	// inner product is −1/(K−1).
	K int
	// Alpha is the stitch weight α in the objective (paper: 0.1).
	Alpha float64
	// Seed makes the run deterministic.
	Seed int64
}

// Restarts is the number of deterministic random restarts of every solve.
const Restarts = 3

// maxIter bounds the gradient iterations of one restart.
const maxIter = 400

// rank is the factorization rank r of an n-vertex solve with k masks: the
// Barvinok–Pataki bound ⌈√(2n)⌉ (n unit-diagonal constraints admit an
// optimum of rank r with r(r+1)/2 ≤ n, so the Burer–Monteiro factorization
// loses nothing), raised to k so the K simplex vectors fit, capped at n.
func rank(n, k int) int {
	return min(max(k, int(math.Ceil(math.Sqrt(float64(2*n))))), n)
}

// Solution is the relaxation output.
type Solution struct {
	// Vectors holds the n unit rows of V (dimension r each).
	Vectors [][]float64
	// Obj is the relaxation objective Σ_CE x_ij − α·Σ_SE x_ij.
	Obj float64
	// MaxViolation is the largest conflict-constraint violation
	// max(0, −1/(K−1) − x_ij) over CE; near zero for a converged solve.
	MaxViolation float64
}

// X returns the Gram matrix of the solution vectors.
func (s *Solution) X() *matrix.Sym { return matrix.Gram(s.Vectors) }

// Pair returns x_ij = v_i·v_j.
func (s *Solution) Pair(i, j int) float64 {
	return matrix.Dot(s.Vectors[i], s.Vectors[j])
}

// restartParallelMinEdges is the component-size floor below which the
// restart fan-out does not engage even when budget slots are free: on
// trivially small pieces the descend loop finishes in microseconds and a
// goroutine handoff costs more than it saves. Purely a scheduling
// heuristic — the solve's bytes are identical either way.
const restartParallelMinEdges = 32

// SolveScratchEnv runs the relaxation on the decomposition graph g,
// polling ctx inside the gradient-descent iteration loop. On cancellation
// it returns the best solution found so far (after at least one restart has
// been initialized), which downstream consumers can still round — quality
// degrades gracefully with the time allowed rather than the call hanging
// until convergence.
//
// The matrix workspace — the factor rows, gradients, and line-search saves
// of every restart — is carved from the worker's scratch arena sc instead
// of the heap, so repeated solves on one worker stop re-allocating the
// (solve-count × n × rank)-sized hot-path memory. The arena is reset at the
// start of each solve, which means the returned Solution's Vectors alias
// scratch memory: they are valid only until the next solve on the same
// arena. Every consumer in this repository (the greedy/backtrack rounding
// of one Dispatch region) finishes with the Solution before its worker
// solves the next piece; a caller that needs to retain vectors must copy
// them or pass a nil scratch, which allocates fresh memory. The numerical
// trajectory is bit-identical either way — the workspace only changes
// where the floats live.
//
// When the environment carries a parallelism budget with free slots
// (division workers that have gone idle), the random restarts run
// concurrently instead of back-to-back — the one-huge-component workload
// where component-level parallelism has nothing left to offer.
//
// The result is bit-identical to the serial loop, by construction:
//
//   - rng serialization point: every restart's NormFloat64 initialization
//     is pre-drawn serially from the single seeded rng, in the exact
//     deviate order of the serial loop (restart-major, then row-major) —
//     the rng is never touched concurrently, and descend consumes no
//     randomness at all;
//   - disjoint state: each restart descends its own factor block (carved
//     from the caller's arena, so the winner's vectors outlive the solve
//     exactly as before), and each runner leases its own scratch arena for
//     the gradient/line-search workspace;
//   - winner selection: each restart's score is computed once from its
//     final state, and the winner is the lexicographic minimum of
//     (score, restart index) — precisely the strict-improvement rule the
//     serial loop applied, independent of completion order.
//
// Under cancellation the usual degraded contract applies (the best of the
// restarts that ran is returned; at least one always runs to its own
// cancellation checkpoint); which restarts those are may differ between
// serial and parallel execution, exactly as division's parallel mode
// already documents for its fallback pieces.
func SolveScratchEnv(ctx context.Context, g *graph.Graph, opts Options, sc *pipeline.Scratch, env pipeline.Env) *Solution {
	if opts.K < 2 {
		panic("sdp: K must be >= 2")
	}
	n := g.N()
	if n == 0 {
		return &Solution{}
	}
	r := rank(n, opts.K)
	sc.ResetFloats()

	ce := g.ConflictEdges()
	se := g.StitchEdges()
	target := -1.0 / float64(opts.K-1)
	done := ctx.Done()

	// Serialization point: draw every restart's initialization now, from
	// the one seeded rng, before any concurrency exists.
	rng := rand.New(rand.NewSource(opts.Seed))
	states := make([]*state, Restarts)
	for i := range states {
		states[i] = newState(n, r, rng, sc)
	}

	// Claim idle worker slots for the extra restart runners. TryAcquire
	// never blocks: with no budget (or no idle workers) the fan-out simply
	// stays serial.
	extra := 0
	if len(ce)+len(se) >= restartParallelMinEdges {
		for extra < Restarts-1 && env.Budget.TryAcquire() {
			extra++
		}
	}

	scores := make([]float64, Restarts)
	ran := make([]bool, Restarts)
	var next pipeline.Cursor
	// Runner 0 is this goroutine (pipeline.Fan runs body 0 inline) and
	// descends with a workspace carved from the caller's arena; with no
	// extra slot it is the whole serial loop.
	ws0 := newWorkspace(n, r, len(ce), sc)
	pipeline.Fan(1+extra, func(w int) {
		ws := ws0
		if w > 0 {
			defer env.Budget.Release()
			// Arena-lease-per-runner: an extra runner leases its own
			// scratch for the descend workspace and returns it before
			// exiting — the caller's arena (holding the factor blocks) is
			// never touched from here.
			rsc := env.Scratch.Get()
			defer env.Scratch.Put(rsc)
			ws = newWorkspace(n, r, len(ce), rsc)
		}
		for i := next.Next(); i < Restarts; i = next.Next() {
			// The claimed restart always descends and scores — even under a
			// dead context descend returns promptly with a valid state, so
			// at least one restart (index 0) is always ranked. The done
			// check sits after, mirroring the serial loop's "finish the
			// current restart, then stop restarting".
			states[i].descend(done, ce, se, opts, target, ws)
			scores[i] = states[i].score(ce, target)
			ran[i] = true
			select {
			case <-done:
				return
			default:
			}
		}
	})

	// Lexicographic (score, restart index) minimum over the restarts that
	// ran — the serial loop's strict-improvement rule, with each score
	// computed exactly once (the old comparison re-scored the incumbent's
	// full CE scan on every restart).
	best := -1
	for i := 0; i < Restarts; i++ {
		if ran[i] && (best < 0 || scores[i] < scores[best]) {
			best = i
		}
	}

	sol := &Solution{Vectors: states[best].v}
	sol.Obj, sol.MaxViolation = evaluate(states[best].v, ce, se, opts.Alpha, target)
	return sol
}

// state is one restart's factor rows: n unit rows over one flat n×r block
// carved from the caller's arena, so the winning restart's vectors stay
// valid after the solve returns (Solution.Vectors alias them).
type state struct {
	v [][]float64
	// back is the flat n×r backing the rows of v alias — kept so the
	// line-search save/restore is one block copy instead of n row copies.
	back []float64
}

// workspace is one restart runner's reusable descend workspace: the
// gradient rows over one flat n×r backing — kept flat so zeroing is a
// single memclr-able clear instead of a row-by-row nested loop — plus the
// line-search save buffer and the conflict-edge dot cache. A runner carves
// it once and reuses it across every restart it executes: no state crosses
// restarts through it (the gradient is rebuilt from zero each iteration,
// the save buffer is overwritten before it is read, and the dot cache is
// guarded by descend's validity flag).
type workspace struct {
	grad     [][]float64
	gradBack []float64
	saved    []float64
	// xbuf caches Dot(v[e.U], v[e.V]) per conflict edge, filled by every
	// penalized scan. When the scanned point is the current iterate (the
	// accepted line-search step, or any penalized call outside the trial
	// loop), the next gradient pass reuses the cached dots instead of
	// recomputing them — the identical float64s, so the trajectory cannot
	// move.
	xbuf []float64
}

func newWorkspace(n, r, ces int, sc *pipeline.Scratch) *workspace {
	ws := &workspace{
		grad:     make([][]float64, n),
		gradBack: sc.Floats(n * r),
		saved:    sc.Floats(n * r),
		xbuf:     sc.Floats(ces),
	}
	for i := 0; i < n; i++ {
		ws.grad[i] = ws.gradBack[i*r : (i+1)*r : (i+1)*r]
	}
	return ws
}

// newState carves one restart's factor block from the scratch arena and
// fills it with the rng's normal deviates in the same row-major order as
// always — neither pooling nor the parallel fan-out may perturb the
// deterministic restart trajectory, so this is the only place randomness
// is consumed.
func newState(n, r int, rng *rand.Rand, sc *pipeline.Scratch) *state {
	vBack := sc.Floats(n * r)
	st := &state{v: make([][]float64, n), back: vBack}
	for i := 0; i < n; i++ {
		st.v[i] = vBack[i*r : (i+1)*r : (i+1)*r]
		for j := 0; j < r; j++ {
			st.v[i][j] = rng.NormFloat64()
		}
		normalize(st.v[i])
	}
	return st
}

func normalize(v []float64) { normalizeSq(v, matrix.Dot(v, v)) }

// normalizeSq is normalize with the squared norm already in hand (the
// fused line-search kernel computes it while writing the row). Norm is
// defined as √Dot(v,v), so √s here is the identical float64.
func normalizeSq(v []float64, s float64) {
	n := math.Sqrt(s)
	if n < 1e-12 {
		v[0] = 1
		for i := 1; i < len(v); i++ {
			v[i] = 0
		}
		return
	}
	inv := 1 / n
	for i := range v {
		v[i] *= inv
	}
}

// penalized returns the penalty-augmented objective, recording each
// conflict edge's dot product in xbuf (len(ce)) for the gradient pass to
// reuse when the scanned point is the one it descends from.
func penalized(v [][]float64, ce, se []graph.Edge, alpha, target, beta float64, xbuf []float64) float64 {
	xbuf = xbuf[:len(ce)]
	f := 0.0
	for i, e := range ce {
		x := matrix.Dot(v[e.U], v[e.V])
		xbuf[i] = x
		f += x
		if d := target - x; d > 0 {
			f += beta * d * d
		}
	}
	for _, e := range se {
		f -= alpha * matrix.Dot(v[e.U], v[e.V])
	}
	return f
}

// evaluate returns the raw relaxation objective and max constraint violation.
func evaluate(v [][]float64, ce, se []graph.Edge, alpha, target float64) (obj, viol float64) {
	for _, e := range ce {
		x := matrix.Dot(v[e.U], v[e.V])
		obj += x
		if d := target - x; d > viol {
			viol = d
		}
	}
	for _, e := range se {
		obj -= alpha * matrix.Dot(v[e.U], v[e.V])
	}
	return obj, viol
}

// score ranks restarts: raw objective plus a strong penalty on violations so
// infeasible local optima lose against feasible ones.
func (st *state) score(ce []graph.Edge, target float64) float64 {
	obj := 0.0
	for _, e := range ce {
		x := matrix.Dot(st.v[e.U], st.v[e.V])
		obj += x
		if d := target - x; d > 0 {
			obj += 50 * d * d
		}
	}
	return obj
}

// descend runs projected gradient descent with an escalating penalty weight.
// It polls done between iterations and stops early when closed. The
// workspace is the runner's own (never shared between goroutines); descend
// consumes no randomness, which is what lets restarts run concurrently.
func (st *state) descend(done <-chan struct{}, ce, se []graph.Edge, opts Options, target float64, ws *workspace) {
	n := len(st.v)
	if n == 0 {
		return
	}
	r := len(st.v[0])
	step := 0.5
	beta := 4.0
	const betaMax = 1 << 17
	fPrev := penalized(st.v, ce, se, opts.Alpha, target, beta, ws.xbuf)
	// xValid: ws.xbuf holds the conflict dots of the current iterate (the
	// last penalized scan saw exactly st.v). Only a rejected line search
	// breaks this — it restores st.v but leaves the failed trial's dots in
	// the cache.
	xValid := true
	stale := 0
	escalate := func() bool {
		// Converged at the current penalty weight: tighten the constraint
		// enforcement and continue, or finish once β is high enough that
		// the residual violation is negligible (≈ 1/(2β)).
		if beta >= betaMax {
			return false
		}
		beta *= 4
		fPrev = penalized(st.v, ce, se, opts.Alpha, target, beta, ws.xbuf)
		xValid = true
		stale = 0
		step = math.Max(step, 0.05)
		return true
	}
	for iter := 0; iter < maxIter; iter++ {
		select {
		case <-done:
			return
		default:
		}
		clear(ws.gradBack)
		for i, e := range ce {
			var x float64
			if xValid {
				x = ws.xbuf[i]
			} else {
				x = matrix.Dot(st.v[e.U], st.v[e.V])
			}
			w := 1.0
			if d := target - x; d > 0 {
				w -= 2 * beta * d
			}
			matrix.AxpyPair(ws.grad[e.U], ws.grad[e.V], w, st.v[e.U], st.v[e.V])
		}
		for _, e := range se {
			matrix.AxpyPair(ws.grad[e.U], ws.grad[e.V], -opts.Alpha, st.v[e.U], st.v[e.V])
		}
		// Project out the radial component (Riemannian gradient) and
		// measure its magnitude for the stopping test, one fused pass per
		// row.
		gnorm := 0.0
		for i := 0; i < n; i++ {
			radial := matrix.Dot(ws.grad[i], st.v[i])
			gnorm += matrix.AxpyNormSq(ws.grad[i], -radial, st.v[i])
		}
		if gnorm < 1e-12*float64(n) {
			if !escalate() {
				break
			}
			continue
		}

		// Backtracking line search along the projected direction. The save
		// and restore move the whole flat factor block at once; the rows
		// alias it, so the bytes are the ones the row-by-row copy moved.
		saved := ws.saved
		copy(saved, st.back)
		improved := false
		for try := 0; try < 12; try++ {
			for i := 0; i < n; i++ {
				s := matrix.AxpyIntoNormSq(st.v[i], saved[i*r:(i+1)*r], -step, ws.grad[i])
				normalizeSq(st.v[i], s)
			}
			f := penalized(st.v, ce, se, opts.Alpha, target, beta, ws.xbuf)
			if f < fPrev-1e-12 {
				fPrev = f
				improved = true
				xValid = true
				step *= 1.3
				break
			}
			step *= 0.5
		}
		if !improved {
			copy(st.back, saved)
			xValid = false
			stale++
			if stale > 3 {
				if !escalate() {
					break
				}
			}
		} else {
			stale = 0
		}
	}
}

// IdealVectors returns the K unit vectors in R^(K−1) whose pairwise inner
// products are all −1/(K−1) — the generalization of the four Fig. 3 vectors
// (for K = 4 they span the regular tetrahedron). They exist for every K ≥ 2
// and realize the discrete solutions of Eq. (1)/(3).
func IdealVectors(k int) [][]float64 {
	if k < 2 {
		panic("sdp: IdealVectors needs k >= 2")
	}
	// Cholesky of the Gram matrix G = (1+1/(k-1))·I − 1/(k−1)·J restricted
	// to rank k−1: the first k−1 vectors come out of the factorization, the
	// k-th is the negative sum of the others divided by... simpler: run a
	// rank-revealing Cholesky on the full k×k Gram matrix.
	c := -1.0 / float64(k-1)
	g := matrix.NewSym(k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if i == j {
				g.Set(i, j, 1)
			} else {
				g.Set(i, j, c)
			}
		}
	}
	vecs := make([][]float64, k)
	for i := range vecs {
		vecs[i] = make([]float64, k-1)
	}
	// L[i][j] for j ≤ min(i, k-2): standard Cholesky truncated to k−1
	// columns (the matrix has rank k−1, so the last pivot vanishes).
	for i := 0; i < k; i++ {
		for j := 0; j <= i && j < k-1; j++ {
			sum := g.At(i, j)
			for p := 0; p < j; p++ {
				sum -= vecs[i][p] * vecs[j][p]
			}
			if i == j {
				if sum < 0 {
					sum = 0
				}
				vecs[i][j] = math.Sqrt(sum)
			} else {
				vecs[i][j] = sum / vecs[j][j]
			}
		}
	}
	return vecs
}
