// Package lockdiscipline enforces annotated mutex contracts: a struct
// field whose declaration carries a `// guarded by <mu>` comment may only
// be read or written while <mu> (a sibling field of the same struct
// value) is held.
//
// The analysis is a forward walk over each function body tracking the set
// of held mutexes per (receiver variable, mutex field) pair:
//
//   - x.mu.Lock()/RLock() acquires, x.mu.Unlock()/RUnlock() releases;
//     `defer x.mu.Unlock()` releases at exit and so keeps the lock held
//     for the remainder of the body.
//   - Branches fork the state; paths that terminate (return, branch,
//     panic, log.Fatal, os.Exit) do not rejoin, and surviving paths merge
//     by intersection — held only if held on every way in.
//   - A `go` statement's function literal starts with nothing held, and so
//     does the body passed to pipeline.Fan, the module's one goroutine
//     boundary, though its body 0 runs on the caller's goroutine; other
//     function literals are also analyzed from an empty state, because
//     nothing ties their call time to the current lock region.
//   - A function whose doc carries `//lint:holds <mu>` is analyzed with
//     the receiver's <mu> pre-held — the machine-readable spelling of
//     "callers must hold s.mu", checked at its call sites' leisure by the
//     same annotation appearing where they lock.
//
// Scope: any package that annotates fields — today internal/flight, whose
// generic Cache keeps its LRU, in-flight map and eviction count `guarded
// by mu` (fields of a generic type are matched through its origin
// declaration, so every instantiation is checked), internal/service, whose
// Service stats are, and internal/core's run-local tallies.
package lockdiscipline

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"mpl/internal/lint/lintkit"
)

// Analyzer is the annotated-mutex checker.
var Analyzer = &lintkit.Analyzer{
	Name: "lockdiscipline",
	Doc: "checks that struct fields annotated `// guarded by <mu>` are only\n" +
		"accessed with that mutex held (//lint:holds <mu> marks helpers whose\n" +
		"callers hold it)",
	Run: run,
}

var guardedRE = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*)`)

// guardKey identifies one held mutex: the object of the receiver-ish root
// identifier plus the mutex field name ("" for a package-level mutex).
type guardKey struct {
	root types.Object
	mu   string
}

type lockState map[guardKey]bool

func (s lockState) clone() lockState {
	c := make(lockState, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}

func intersect(a, b lockState) lockState {
	out := lockState{}
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}

// guards maps a named struct type to its field→mutex annotations.
type guards map[*types.TypeName]map[string]string

func run(pass *lintkit.Pass) error {
	g := collectGuards(pass)
	if len(g) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := &walker{pass: pass, guards: g}
			state := lockState{}
			// //lint:holds <mu>: the receiver's mutex is held on entry.
			for _, mu := range holdsDirectives(fd) {
				if obj := receiverObj(pass, fd); obj != nil {
					state[guardKey{root: obj, mu: mu}] = true
				}
			}
			w.walkStmts(fd.Body.List, state)
		}
	}
	return nil
}

// collectGuards finds `guarded by <mu>` field annotations on struct type
// declarations.
func collectGuards(pass *lintkit.Pass) guards {
	g := guards{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				tn, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					mu := fieldGuard(field)
					if mu == "" {
						continue
					}
					for _, name := range field.Names {
						if g[tn] == nil {
							g[tn] = map[string]string{}
						}
						g[tn][name.Name] = mu
					}
				}
			}
		}
	}
	return g
}

func fieldGuard(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedRE.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

func holdsDirectives(fd *ast.FuncDecl) []string {
	if fd.Doc == nil {
		return nil
	}
	var out []string
	for _, c := range fd.Doc.List {
		if rest, ok := strings.CutPrefix(c.Text, "//lint:holds "); ok {
			for _, mu := range strings.Fields(rest) {
				out = append(out, mu)
			}
		}
	}
	return out
}

func receiverObj(pass *lintkit.Pass, fd *ast.FuncDecl) types.Object {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	return pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]]
}

type walker struct {
	pass   *lintkit.Pass
	guards guards
}

// walkStmts interprets a statement list, returning the lock state at its
// end and whether control cannot fall out of it.
func (w *walker) walkStmts(list []ast.Stmt, state lockState) (lockState, bool) {
	for _, stmt := range list {
		var terminated bool
		state, terminated = w.walkStmt(stmt, state)
		if terminated {
			return state, true
		}
	}
	return state, false
}

func (w *walker) walkStmt(stmt ast.Stmt, state lockState) (lockState, bool) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		w.checkExpr(s.X, state)
		if key, op, ok := lockOp(w.pass, s.X); ok {
			if op {
				state = state.clone()
				state[key] = true
			} else {
				state = state.clone()
				delete(state, key)
			}
			return state, false
		}
		return state, isTerminalCall(s.X)
	case *ast.DeferStmt:
		// A deferred unlock fires at exit: the lock stays held from here
		// on. A deferred literal runs at exit too — approximate with the
		// current state.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.walkStmts(lit.Body.List, state.clone())
		} else {
			w.checkExpr(s.Call, state)
		}
		return state, false
	case *ast.GoStmt:
		for _, arg := range s.Call.Args {
			w.checkExpr(arg, state)
		}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.walkStmts(lit.Body.List, lockState{}) // a new goroutine holds nothing
		}
		return state, false
	case *ast.BlockStmt:
		return w.walkStmts(s.List, state)
	case *ast.IfStmt:
		if s.Init != nil {
			state, _ = w.walkStmt(s.Init, state)
		}
		w.checkExpr(s.Cond, state)
		thenState, thenTerm := w.walkStmts(s.Body.List, state.clone())
		elseState, elseTerm := state, false
		if s.Else != nil {
			elseState, elseTerm = w.walkStmt(s.Else, state.clone())
		}
		switch {
		case thenTerm && elseTerm:
			return state, true
		case thenTerm:
			return elseState, false
		case elseTerm:
			return thenState, false
		default:
			return intersect(thenState, elseState), false
		}
	case *ast.ForStmt:
		if s.Init != nil {
			state, _ = w.walkStmt(s.Init, state)
		}
		if s.Cond != nil {
			w.checkExpr(s.Cond, state)
		}
		bodyState, _ := w.walkStmts(s.Body.List, state.clone())
		if s.Post != nil {
			w.walkStmt(s.Post, bodyState)
		}
		// After the loop: held only if held both before it and at the end
		// of an iteration (zero or more passes).
		return intersect(state, bodyState), false
	case *ast.RangeStmt:
		w.checkExpr(s.X, state)
		bodyState, _ := w.walkStmts(s.Body.List, state.clone())
		return intersect(state, bodyState), false
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return w.walkCases(stmt, state)
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, state)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.checkExpr(r, state)
		}
		return state, true
	case *ast.BranchStmt:
		return state, true
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.checkExpr(e, state)
		}
		for _, e := range s.Lhs {
			w.checkExpr(e, state)
		}
		return state, false
	case *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt:
		w.checkNode(stmt, state)
		return state, false
	default:
		if stmt != nil {
			w.checkNode(stmt, state)
		}
		return state, false
	}
}

// walkCases handles switch/type-switch/select: each clause runs from the
// pre-state; the post-state intersects the survivors (plus the pre-state
// when no clause need run — no default).
func (w *walker) walkCases(stmt ast.Stmt, state lockState) (lockState, bool) {
	var body *ast.BlockStmt
	hasDefault := false
	switch s := stmt.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			state, _ = w.walkStmt(s.Init, state)
		}
		if s.Tag != nil {
			w.checkExpr(s.Tag, state)
		}
		body = s.Body
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			state, _ = w.walkStmt(s.Init, state)
		}
		w.checkNode(s.Assign, state)
		body = s.Body
	case *ast.SelectStmt:
		body = s.Body
	}
	var outs []lockState
	allTerm := true
	for _, clause := range body.List {
		var stmts []ast.Stmt
		switch c := clause.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				w.checkExpr(e, state)
			}
			hasDefault = hasDefault || c.List == nil
			stmts = c.Body
		case *ast.CommClause:
			if c.Comm != nil {
				_, _ = w.walkStmt(c.Comm, state.clone())
			}
			hasDefault = hasDefault || c.Comm == nil
			stmts = c.Body
		}
		out, term := w.walkStmts(stmts, state.clone())
		if !term {
			allTerm = false
			outs = append(outs, out)
		}
	}
	// A select always runs a clause; a switch without default may run
	// none.
	_, isSelect := stmt.(*ast.SelectStmt)
	if !isSelect && !hasDefault {
		outs = append(outs, state)
		allTerm = false
	}
	if allTerm && len(outs) == 0 {
		return state, true
	}
	merged := outs[0]
	for _, o := range outs[1:] {
		merged = intersect(merged, o)
	}
	return merged, false
}

// lockOp matches `x.mu.Lock()`-shaped calls, returning the guard key and
// whether it acquires (true) or releases (false).
func lockOp(pass *lintkit.Pass, e ast.Expr) (guardKey, bool, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return guardKey{}, false, false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return guardKey{}, false, false
	}
	var acquire bool
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
		acquire = false
	default:
		return guardKey{}, false, false
	}
	switch recv := sel.X.(type) {
	case *ast.SelectorExpr: // x.mu.Lock()
		if root, ok := recv.X.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Uses[root]; obj != nil {
				return guardKey{root: obj, mu: recv.Sel.Name}, acquire, true
			}
		}
	case *ast.Ident: // mu.Lock() on a package-level or local mutex
		if obj := pass.TypesInfo.Uses[recv]; obj != nil {
			return guardKey{root: obj, mu: recv.Name}, acquire, true
		}
	}
	return guardKey{}, false, false
}

// isTerminalCall recognizes calls that never return.
func isTerminalCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		name := fun.Sel.Name
		return name == "Exit" || name == "Fatal" || name == "Fatalf" || name == "Fatalln"
	}
	return false
}

func (w *walker) checkNode(n ast.Node, state lockState) {
	ast.Inspect(n, func(nn ast.Node) bool {
		if e, ok := nn.(ast.Expr); ok {
			if sel, isSel := e.(*ast.SelectorExpr); isSel {
				w.checkSelector(sel, state)
			}
		}
		return true
	})
}

// checkExpr scans an expression for guarded-field selectors, descending
// into everything except function literals (analyzed separately).
func (w *walker) checkExpr(e ast.Expr, state lockState) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.walkStmts(n.Body.List, lockState{})
			return false
		case *ast.SelectorExpr:
			w.checkSelector(n, state)
		}
		return true
	})
}

// checkSelector reports x.f where f is a guarded field of x's struct type
// and the guarding mutex is not held.
func (w *walker) checkSelector(sel *ast.SelectorExpr, state lockState) {
	root, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	obj := w.pass.TypesInfo.Uses[root]
	if obj == nil {
		return
	}
	tn := namedTypeOf(obj)
	if tn == nil {
		return
	}
	fields, ok := w.guards[tn]
	if !ok {
		return
	}
	mu, guarded := fields[sel.Sel.Name]
	if !guarded {
		return
	}
	if !state[guardKey{root: obj, mu: mu}] {
		w.pass.Reportf(sel.Sel.Pos(), "%s.%s is guarded by %s.%s but accessed without holding it (//lint:holds %s on the enclosing function if its callers hold the lock)", root.Name, sel.Sel.Name, root.Name, mu, mu)
	}
}

func namedTypeOf(obj types.Object) *types.TypeName {
	t := obj.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}
