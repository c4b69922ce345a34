// Package determinism enforces the repository's byte-identical-output
// contract (DESIGN.md §3, §10): the same layout and options must produce
// the same bytes at any worker count, because golden tests, cache keys,
// and the incremental-≡-scratch equivalence all hash or compare outputs.
//
// Three rules:
//
//  1. mapOrder (all packages): ranging over a map must not emit output or
//     accumulate an order-dependent slice that escapes unsorted. Copying
//     into another map, summing, or counting is commutative and fine;
//     fmt.Fprintf inside the loop, or append-then-return without an
//     intervening sort, is a finding.
//  2. wallClock (solver-path packages only): time.Now is allowed solely
//     in the duration-telemetry pattern `t := time.Now()` where every use
//     of t is time.Since(t) or a .Sub operand. Deadlines and any other
//     escape of wall-clock values need a //lint:ignore determinism with
//     the contract argument (e.g. "budget expiry is surfaced as
//     Proven=false, never as different bytes").
//  3. seededRand (solver-path packages only): the global math/rand source
//     (rand.Intn, rand.Shuffle, ...) is process-seeded and forbidden;
//     construct a seeded rand.New(rand.NewSource(seed)) instead.
package determinism

import (
	"go/ast"
	"go/types"

	"mpl/internal/lint/lintkit"
)

// solverPaths are the package-path tails whose computations feed golden
// outputs and cache keys. cmd/* and the serving layer are covered by
// mapOrder but may read wall clocks freely (request timing, logs).
var solverPaths = []string{
	"internal/core", "internal/division", "internal/portfolio",
	"internal/sdp", "internal/ilp", "internal/pipeline",
	"internal/ghtree", "internal/maxflow", "internal/coloring",
	"internal/graph", "internal/canon", "internal/flight",
}

// Analyzer is the determinism checker.
var Analyzer = &lintkit.Analyzer{
	Name: "determinism",
	Doc: "flags map-iteration order escaping into outputs, and wall-clock/global-rand\n" +
		"reads in solver-path packages, which would break byte-identical replay",
	Run: run,
}

func solverPath(path string) bool {
	for _, p := range solverPaths {
		if lintkit.PathWithin(path, p) {
			return true
		}
	}
	return false
}

func run(pass *lintkit.Pass) error {
	inSolver := solverPath(pass.Path)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkFunc(pass, n.Body)
				}
				return true
			case *ast.CallExpr:
				if !inSolver {
					return true
				}
				checkWallClockAndRand(pass, f, n)
			}
			return true
		})
	}
	return nil
}

// checkFunc applies the mapOrder rule to one function body: every
// range-over-map inside it is checked for emits and unsorted escapes.
func checkFunc(pass *lintkit.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[rs.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRange(pass, body, rs)
		return true
	})
}

// emitFuncs are fmt output calls whose interleaving with map iteration
// makes the emitted byte order follow the (randomized) map order.
var emitFuncs = map[string]bool{
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
}

// emitMethods write to an accumulating sink (io.Writer, strings.Builder,
// json/xml encoders) — same hazard as the fmt functions.
var emitMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Encode": true,
}

func checkMapRange(pass *lintkit.Pass, fn *ast.BlockStmt, rs *ast.RangeStmt) {
	// Pass 1 over the loop body: emits, and slice objects appended to.
	appended := map[types.Object]ast.Node{}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			if id, ok := fun.X.(*ast.Ident); ok && id.Name == "fmt" && emitFuncs[fun.Sel.Name] {
				pass.Reportf(call.Pos(), "output emitted while ranging over a map: iteration order is randomized; collect and sort keys first")
				return true
			}
			if emitMethods[fun.Sel.Name] && pass.TypesInfo.Selections[fun] != nil {
				pass.Reportf(call.Pos(), "%s called while ranging over a map: iteration order is randomized; collect and sort keys first", fun.Sel.Name)
				return true
			}
		case *ast.Ident:
			if fun.Name == "append" && len(call.Args) > 0 {
				if obj := appendTarget(pass, rs, call); obj != nil {
					appended[obj] = call
				}
			}
		}
		return true
	})
	if len(appended) == 0 {
		return
	}
	// Pass 2 over the whole function: an appended slice is safe once any
	// sort touches it; otherwise escaping it (return, call argument,
	// field/index store, channel send) carries map order out.
	for obj, site := range appended {
		if sortedInFunc(pass, fn, obj) {
			continue
		}
		if escape := escapeInFunc(pass, fn, rs, obj); escape != "" {
			pass.Reportf(site.Pos(), "slice %s accumulates map-iteration order and %s without an intervening sort", obj.Name(), escape)
		}
	}
}

// appendTarget resolves `x = append(x, ...)` inside the range body to x's
// object, when x is a plain identifier (not the loop's own variable).
func appendTarget(pass *lintkit.Pass, rs *ast.RangeStmt, call *ast.CallExpr) types.Object {
	id, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return nil
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = pass.TypesInfo.Defs[id]
	}
	if obj == nil {
		return nil
	}
	// An append to a slice of the loop's own making (declared inside the
	// body) that never leaves the iteration is per-key work, not
	// accumulation across keys.
	if rs.Body.Pos() <= obj.Pos() && obj.Pos() <= rs.Body.End() {
		return nil
	}
	return obj
}

// sortedInFunc reports whether fn contains a sort/slices call that
// references obj anywhere in its arguments.
func sortedInFunc(pass *lintkit.Pass, fn *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgID, ok := sel.X.(*ast.Ident)
		if !ok || (pkgID.Name != "sort" && pkgID.Name != "slices") {
			return true
		}
		for _, arg := range call.Args {
			if referencesObj(pass, arg, obj) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// escapeInFunc reports how obj's contents leave the function (or shared
// state) after the range loop, as a human-readable phrase; empty means no
// escape was found.
func escapeInFunc(pass *lintkit.Pass, fn *ast.BlockStmt, rs *ast.RangeStmt, obj types.Object) string {
	escape := ""
	ast.Inspect(fn, func(n ast.Node) bool {
		if escape != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if referencesObj(pass, res, obj) {
					escape = "is returned"
					return false
				}
			}
		case *ast.CallExpr:
			if n.Pos() >= rs.Body.Pos() && n.End() <= rs.Body.End() {
				return true // appends inside the loop itself
			}
			if isAppendOrBuiltin(n) {
				return true
			}
			for _, arg := range n.Args {
				if referencesObj(pass, arg, obj) {
					escape = "is passed along"
					return false
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i < len(n.Rhs) && !referencesObj(pass, n.Rhs[i], obj) {
					continue
				}
				switch lhs.(type) {
				case *ast.SelectorExpr, *ast.IndexExpr:
					escape = "is stored"
					return false
				}
			}
		case *ast.SendStmt:
			if referencesObj(pass, n.Value, obj) {
				escape = "is sent on a channel"
				return false
			}
		}
		return true
	})
	// A named result escapes by definition even without an explicit
	// return expression.
	if escape == "" {
		if v, ok := obj.(*types.Var); ok && namedResult(pass, fn, v) {
			escape = "is a named result"
		}
	}
	return escape
}

func isAppendOrBuiltin(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && (id.Name == "append" || id.Name == "len" || id.Name == "cap" || id.Name == "copy")
}

func namedResult(pass *lintkit.Pass, fn *ast.BlockStmt, v *types.Var) bool {
	// Heuristic: the variable was declared before the body began.
	return v.Pos() < fn.Pos()
}

func referencesObj(pass *lintkit.Pass, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// checkWallClockAndRand applies rules 2 and 3 to one call expression.
func checkWallClockAndRand(pass *lintkit.Pass, f *ast.File, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	pkgID, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	obj, ok := pass.TypesInfo.Uses[pkgID].(*types.PkgName)
	if !ok {
		return
	}
	switch obj.Imported().Path() {
	case "time":
		if sel.Sel.Name == "Now" && !durationOnly(pass, f, call) {
			pass.Reportf(call.Pos(), "time.Now in a solver-path package escapes the duration-telemetry pattern; wall-clock values must not influence output bytes (//lint:ignore determinism <why> if this is a budget deadline surfaced via Proven/Degraded)")
		}
	case "math/rand", "math/rand/v2":
		// Constructors and source plumbing are fine — only draws from the
		// package-global, process-seeded source are flagged.
		switch sel.Sel.Name {
		case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
			return
		}
		pass.Reportf(call.Pos(), "%s.%s draws from the global rand source; use a rand.New(rand.NewSource(seed)) threaded from Options so replays are reproducible", pkgID.Name, sel.Sel.Name)
	}
}

// durationOnly reports whether the time.Now() call is the duration-
// telemetry pattern: its value lands in a single variable whose every use
// is time.Since(t) or a .Sub operand.
func durationOnly(pass *lintkit.Pass, f *ast.File, now *ast.CallExpr) bool {
	var obj types.Object
	ok := false
	ast.Inspect(f, func(n ast.Node) bool {
		as, isAssign := n.(*ast.AssignStmt)
		if !isAssign {
			return true
		}
		for i, rhs := range as.Rhs {
			if rhs != now || i >= len(as.Lhs) {
				continue
			}
			if id, isID := as.Lhs[i].(*ast.Ident); isID {
				if o := pass.TypesInfo.Defs[id]; o != nil {
					obj, ok = o, true
				} else if o := pass.TypesInfo.Uses[id]; o != nil {
					obj, ok = o, true
				}
			}
		}
		return !ok
	})
	if !ok {
		return false
	}
	// Every use of the variable must be a duration computation.
	safe := true
	ast.Inspect(f, func(n ast.Node) bool {
		if !safe {
			return false
		}
		id, isID := n.(*ast.Ident)
		if !isID || pass.TypesInfo.Uses[id] != obj {
			return true
		}
		if !durationUse(pass, f, id) {
			safe = false
		}
		return true
	})
	return safe
}

// durationUse reports whether this use of the time variable is a duration
// computation — time.Since(t), t.Sub(u), u.Sub(t) — or the target of a
// reassignment (itself checked as its own time.Now site).
func durationUse(pass *lintkit.Pass, f *ast.File, id *ast.Ident) bool {
	path := enclosing(f, id)
	if len(path) == 0 {
		return false
	}
	switch parent := path[len(path)-1].(type) {
	case *ast.AssignStmt:
		for _, lhs := range parent.Lhs {
			if lhs == ast.Expr(id) {
				return true
			}
		}
	case *ast.CallExpr:
		if fun, ok := parent.Fun.(*ast.SelectorExpr); ok {
			if pkg, isPkg := fun.X.(*ast.Ident); isPkg && pkg.Name == "time" && fun.Sel.Name == "Since" {
				return true // time.Since(t)
			}
			if fun.Sel.Name == "Sub" {
				return true // u.Sub(t)
			}
		}
	case *ast.SelectorExpr:
		if parent.Sel.Name == "Sub" && parent.X == ast.Expr(id) {
			return true // t.Sub(u)
		}
	}
	return false
}

// enclosing returns the path of nodes from the file down to (and
// excluding) target.
func enclosing(f *ast.File, target ast.Node) []ast.Node {
	var path, best []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			path = path[:len(path)-1]
			return true
		}
		if n == target {
			best = append([]ast.Node(nil), path...)
			return false
		}
		path = append(path, n)
		return true
	})
	return best
}
