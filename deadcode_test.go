package mpl_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"mpl/internal/lint/lintkit"
)

// reachabilityExempt lists the declarations no production path reaches that
// stay on purpose, each with the reason. A key is a declaration as the guard
// names it ("mpl/internal/ghtree.(*Tree).MinCut") or a package path, which
// exempts every declaration in that package.
var reachabilityExempt = map[string]string{
	"mpl/internal/bound":                   "test oracle: the conflict lower bound, kept until ROADMAP item 6 wires it into results",
	"mpl/internal/ghtree.(*Tree).MinCut":   "test oracle: tree-path minima checked against fresh max flows",
	"mpl/internal/matrix.(*Sym).IsPSD":     "test oracle: the eigenvalue PSD check of a relaxation's Gram matrix",
	"mpl/internal/sdp.(*Solution).X":       "test oracle: the Gram matrix X = VᵀV the relaxation tests check",
	"mpl/internal/sdp.IdealVectors":        "test oracle: Fig. 3's K simplex vectors the relaxation should approach",
	"mpl/internal/synth.Random":            "test oracle: seeded random layouts for the property and fuzz tests",
	"mpl/internal/flight.(*Cache).Waiters": "test seam: a planted fill is released only after a waiter has parked",
	"mpl/internal/lint/lintkit.RunFixture": "test harness: the `// want` fixture runner all four analyzer test packages share",
}

// TestNoUnreachableDeclarations is the dead-code guard (DESIGN.md §10): it
// walks the reference graph between top-level declarations of the module and
// servebench, from every production entry point, and fails on each non-test
// declaration the walk never reaches. Roots are package main (cmd/*,
// examples/*, servebench), every init, the exported API of package mpl, blank
// declarations, and methods that let a reachable type satisfy an interface.
// Declarations reached only from _test.go files count as unreachable; the
// ones kept on purpose are listed in reachabilityExempt, and an entry that no
// longer names an unreachable declaration is reported as stale.
func TestNoUnreachableDeclarations(t *testing.T) {
	module, servebench := loadProduction(t)
	w := newReachWalk()
	w.add(module, true)
	w.add(servebench, false)
	w.walk(w.roots)

	// An exemption must name a declaration (or a package with one) that
	// production code does not reach; what it reaches is kept with it.
	var oracles []string
	for key := range reachabilityExempt {
		var hit []string
		for k, d := range w.decls {
			if d.report && !w.reached[k] && (d.name == key || d.pkg == key) {
				hit = append(hit, k)
			}
		}
		if len(hit) == 0 {
			t.Errorf("stale exemption %q: it names no declaration that production code leaves unreached", key)
		}
		if reachabilityExempt[key] == "" {
			t.Errorf("exemption %q has no reason", key)
		}
		oracles = append(oracles, hit...)
	}
	w.walk(oracles)

	var dead []string
	for key, d := range w.decls {
		if d.report && !w.reached[key] {
			dead = append(dead, d.pos+": "+d.name)
		}
	}
	sort.Strings(dead)
	for _, line := range dead {
		t.Errorf("unreachable from any production entry point: %s", line)
	}
}

// goStmtExempt lists the functions besides pipeline.Fan that may start a
// goroutine with a `go` statement, each with the reason. A key is the
// enclosing declaration as the guard names it ("mpl/cmd/qpld.serveUntil").
var goStmtExempt = map[string]string{
	"mpl/cmd/qpld.serveUntil": "the HTTP listener: hs.Serve runs for the server's whole life while serveUntil waits for a shutdown signal, so it is no bounded fan-out",
}

// fanPrimitive is the module's one goroutine boundary.
const fanPrimitive = "mpl/internal/pipeline.Fan"

// TestOneGoroutineBoundary is the goroutine guard (DESIGN.md §10): every
// worker pool in the module runs through pipeline.Fan, so a `go` statement
// in any other non-test declaration of the module fails it, named by file,
// line and enclosing declaration. The exceptions sit in goStmtExempt with a
// reason, and an entry whose declaration no longer starts a goroutine is
// reported as stale.
func TestOneGoroutineBoundary(t *testing.T) {
	module, _ := loadProduction(t)
	found := map[string][]string{} // enclosing declaration -> go statement positions
	for _, p := range module {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				name := p.Path + " (package-level)"
				if fd, ok := d.(*ast.FuncDecl); ok {
					name = declName(p.Info.Defs[fd.Name])
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if g, ok := n.(*ast.GoStmt); ok {
						found[name] = append(found[name], linePos(p.Fset, g.Pos()))
					}
					return true
				})
			}
		}
	}
	if len(found[fanPrimitive]) == 0 {
		t.Errorf("no go statement in %s: the primitive is gone or the scanner is broken", fanPrimitive)
	}
	delete(found, fanPrimitive)
	for name, reason := range goStmtExempt {
		if reason == "" {
			t.Errorf("exemption %q has no reason", name)
		}
		if len(found[name]) == 0 {
			t.Errorf("stale exemption %q: it starts no goroutine", name)
		}
		delete(found, name)
	}
	var stray []string
	for name, pos := range found {
		for _, p := range pos {
			stray = append(stray, p+": "+name)
		}
	}
	sort.Strings(stray)
	for _, line := range stray {
		t.Errorf("go statement outside %s: %s", fanPrimitive, line)
	}
}

// loadProduction type-checks the non-test files of the module and of
// servebench once for every guard in this file.
func loadProduction(t *testing.T) (module, servebench []*lintkit.Package) {
	t.Helper()
	trees, err := productionTrees()
	if err != nil {
		t.Fatal(err)
	}
	return trees[0], trees[1]
}

var productionTrees = sync.OnceValues(func() ([2][]*lintkit.Package, error) {
	var trees [2][]*lintkit.Package
	root, err := filepath.Abs(".")
	if err != nil {
		return trees, err
	}
	for i, dir := range []string{root, filepath.Join(root, "servebench")} {
		if trees[i], err = lintkit.Load(dir, "./..."); err != nil {
			return trees, err
		}
	}
	return trees, nil
})

// reachDecl is one top-level declaration: a func, a method, a type, or one
// name of a var or const spec.
type reachDecl struct {
	name   string // "pkg.Name", "pkg.T.M" or "pkg.(*T).M"
	pkg    string
	pos    string   // base file name:line, for the failure message
	report bool     // declared in the mpl module (not servebench): guarded
	refs   []string // position keys of the declarations it references
}

// reachWalk keys declarations by source position: servebench's load
// type-checks the module's packages again as its dependencies, and a
// position is the one identity its references share with the module load.
type reachWalk struct {
	decls   map[string]*reachDecl
	roots   []string
	reached map[string]bool
}

func newReachWalk() *reachWalk {
	return &reachWalk{decls: map[string]*reachDecl{}, reached: map[string]bool{}}
}

// posKey identifies a declaration by its file and byte offset.
func posKey(fset *token.FileSet, p token.Pos) string {
	pos := fset.Position(p)
	return pos.Filename + ":" + strconv.Itoa(pos.Offset)
}

// linePos names p as "file.go:line", for failure messages.
func linePos(fset *token.FileSet, p token.Pos) string {
	pos := fset.Position(p)
	return filepath.Base(pos.Filename) + ":" + strconv.Itoa(pos.Line)
}

// origin maps an instantiated generic object to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func inModule(pkg *types.Package) bool {
	return pkg != nil && (pkg.Path() == "mpl" || strings.HasPrefix(pkg.Path(), "mpl/"))
}

// topLevel reports whether obj is a package-level declaration or a concrete
// method of the module.
func topLevel(obj types.Object) bool {
	if obj == nil || !inModule(obj.Pkg()) {
		return false
	}
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			_, abstract := recv.Type().Underlying().(*types.Interface)
			return !abstract
		}
	}
	return obj.Parent() == obj.Pkg().Scope()
}

// declName names obj as failures and exemptions spell it.
func declName(obj types.Object) string {
	f, ok := obj.(*types.Func)
	if !ok {
		return obj.Pkg().Path() + "." + obj.Name()
	}
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return obj.Pkg().Path() + "." + obj.Name()
	}
	rt := recv.Type()
	ptr := false
	if p, ok := rt.(*types.Pointer); ok {
		rt, ptr = p.Elem(), true
	}
	tn := rt.(*types.Named).Obj().Name()
	if ptr {
		return obj.Pkg().Path() + ".(*" + tn + ")." + obj.Name()
	}
	return obj.Pkg().Path() + "." + tn + "." + obj.Name()
}

// add records the declarations of pkgs and their references; report marks
// them as subject to the guard (the module's own packages, not servebench's).
func (w *reachWalk) add(pkgs []*lintkit.Package, report bool) {
	ifaces := interfacesSeen(pkgs)
	for _, p := range pkgs {
		info := p.Info
		uses := func(n ast.Node) []string {
			var refs []string
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := info.Uses[id]; obj != nil {
						obj = origin(obj)
						if topLevel(obj) {
							refs = append(refs, posKey(p.Fset, obj.Pos()))
						}
					}
				}
				return true
			})
			return refs
		}
		declare := func(obj types.Object, refs []string) {
			key := posKey(p.Fset, obj.Pos())
			w.decls[key] = &reachDecl{
				name:   declName(obj),
				pkg:    p.Path,
				pos:    linePos(p.Fset, obj.Pos()),
				report: report && obj.Name() != "_" && obj.Name() != "init",
				refs:   refs,
			}
			if obj.Name() == "_" || obj.Name() == "init" ||
				(p.Types.Name() == "main" && obj.Name() == "main") ||
				(p.Path == "mpl" && obj.Exported()) {
				w.roots = append(w.roots, key)
			}
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					declare(info.Defs[d.Name], uses(d))
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							obj := info.Defs[s.Name]
							refs := uses(s)
							if named, ok := obj.Type().(*types.Named); ok && !s.Assign.IsValid() {
								refs = append(refs, ifaceMethods(p.Fset, named, ifaces)...)
							}
							declare(obj, refs)
						case *ast.ValueSpec:
							refs := uses(s)
							for _, name := range s.Names {
								obj := info.Defs[name]
								if named, ok := obj.Type().(*types.Named); ok && topLevel(named.Obj()) {
									refs = append(refs, posKey(p.Fset, named.Obj().Pos()))
								}
								declare(obj, refs)
							}
						}
					}
				}
			}
		}
	}
}

// ifaceMethods returns the methods of named (or its pointer) that satisfy
// one of ifaces.
func ifaceMethods(fset *token.FileSet, named *types.Named, ifaces []*types.Interface) []string {
	if named.TypeParams().Len() > 0 {
		// A generic type's methods are kept through their uses only.
		return nil
	}
	var refs []string
	for _, iface := range ifaces {
		for _, t := range []types.Type{named, types.NewPointer(named)} {
			if !types.Implements(t, iface) {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				obj, _, _ := types.LookupFieldOrMethod(t, true, named.Obj().Pkg(), iface.Method(i).Name())
				if obj != nil && topLevel(origin(obj)) {
					refs = append(refs, posKey(fset, origin(obj).Pos()))
				}
			}
			break
		}
	}
	return refs
}

// interfacesSeen lists the predeclared error and every non-generic
// package-level interface with methods in pkgs and their transitive imports,
// the standard library included.
func interfacesSeen(pkgs []*lintkit.Package) []*types.Interface {
	seen := map[*types.Package]bool{}
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	var visit func(*types.Package)
	visit = func(q *types.Package) {
		if seen[q] {
			return
		}
		seen[q] = true
		scope := q.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := named.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				out = append(out, it)
			}
		}
		for _, imp := range q.Imports() {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		visit(p.Types)
	}
	return out
}

// walk marks everything reachable from roots.
func (w *reachWalk) walk(roots []string) {
	stack := append([]string(nil), roots...)
	for len(stack) > 0 {
		key := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if w.reached[key] {
			continue
		}
		w.reached[key] = true
		if d := w.decls[key]; d != nil {
			stack = append(stack, d.refs...)
		}
	}
}

// optionFieldExempt lists the option fields no production code sets that
// stay on purpose, each with the reason. A key names a field as the guard
// does ("mpl/internal/store.Options.NoSync").
var optionFieldExempt = map[string]string{
	"mpl/internal/store.Options.NoSync":                        "test seam: the store, service and serve tests skip fsync for speed",
	"mpl/internal/coloring.LinearOptions.Order":                "test seam: the stage-2 vertex-order ablation in coloring's ablation_test.go",
	"mpl/internal/coloring.LinearOptions.DisableColorFriendly": "test seam: the color-friendly-edge ablation in coloring's ablation_test.go",
}

// TestEveryOptionFieldIsSet is the knob guard (DESIGN.md §10): every
// exported field of a module struct named Options, Config or *Options must
// be set by non-test code of the module or servebench, through a keyed
// composite literal or an assignment to the field. Writes inside the
// type's own methods do not count: a withDefaults filling in a default is
// not a caller. A field that only tests set is a dead knob; make it a
// constant of its package, or list it in optionFieldExempt with a reason.
// An exemption for a field that production code does set is stale and
// fails too.
func TestEveryOptionFieldIsSet(t *testing.T) {
	module, servebench := loadProduction(t)

	type field struct {
		name  string // "pkg.Type.Field"
		pos   string // base file name:line, for the failure message
		owner string // position key of the struct's type name
	}
	fields := map[string]field{} // field position key -> field
	for _, p := range module {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				s, ok := n.(*ast.TypeSpec)
				if !ok || s.Assign.IsValid() || !optionsTypeName(s.Name.Name) {
					return true
				}
				obj := p.Info.Defs[s.Name]
				st, ok := obj.Type().Underlying().(*types.Struct)
				if !ok {
					return true
				}
				for i := 0; i < st.NumFields(); i++ {
					if v := st.Field(i); v.Exported() {
						fields[posKey(p.Fset, v.Pos())] = field{
							name:  p.Path + "." + obj.Name() + "." + v.Name(),
							pos:   linePos(p.Fset, v.Pos()),
							owner: posKey(p.Fset, obj.Pos()),
						}
					}
				}
				return true
			})
		}
	}
	if len(fields) == 0 {
		t.Fatal("no option structs found; the scanner is broken")
	}

	set := map[string]bool{} // field position keys production code writes
	for _, pkgs := range [][]*lintkit.Package{module, servebench} {
		for _, p := range pkgs {
			mark := func(obj types.Object, recv string) {
				if v, ok := obj.(*types.Var); ok && v.IsField() {
					k := posKey(p.Fset, v.Origin().Pos())
					if f, ok := fields[k]; ok && f.owner != recv {
						set[k] = true
					}
				}
			}
			for _, f := range p.Files {
				for _, d := range f.Decls {
					recv := "" // position key of a method's receiver type
					if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
						rt := p.Info.Defs[fd.Name].Type().(*types.Signature).Recv().Type()
						if ptr, ok := rt.(*types.Pointer); ok {
							rt = ptr.Elem()
						}
						if named, ok := rt.(*types.Named); ok {
							recv = posKey(p.Fset, named.Obj().Pos())
						}
					}
					ast.Inspect(d, func(n ast.Node) bool {
						var lhs []ast.Expr
						switch n := n.(type) {
						case *ast.CompositeLit:
							for _, e := range n.Elts {
								if kv, ok := e.(*ast.KeyValueExpr); ok {
									if id, ok := kv.Key.(*ast.Ident); ok {
										mark(p.Info.Uses[id], recv)
									}
								}
							}
						case *ast.AssignStmt:
							lhs = n.Lhs
						case *ast.IncDecStmt:
							lhs = []ast.Expr{n.X}
						}
						for _, e := range lhs {
							if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
								if s := p.Info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
									mark(s.Obj(), recv)
								}
							}
						}
						return true
					})
				}
			}
		}
	}

	exempt := map[string]bool{}
	for name, reason := range optionFieldExempt {
		if reason == "" {
			t.Errorf("exemption %q has no reason", name)
		}
		exempt[name] = true
	}
	var unset []string
	for k, f := range fields {
		switch {
		case set[k] && exempt[f.name]:
			t.Errorf("stale exemption %q: production code sets it", f.name)
		case !set[k] && !exempt[f.name]:
			unset = append(unset, f.pos+": "+f.name)
		}
		delete(exempt, f.name)
	}
	for name := range exempt {
		t.Errorf("stale exemption %q: it names no option field", name)
	}
	sort.Strings(unset)
	for _, name := range unset {
		t.Errorf("option field no production code sets: %s", name)
	}
}

// optionsTypeName reports whether a struct named name is an option struct
// the knob guard covers.
func optionsTypeName(name string) bool {
	return name == "Config" || strings.HasSuffix(name, "Options")
}
