package mpl_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
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
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	w := newReachWalk()
	for _, dir := range []string{root, filepath.Join(root, "servebench")} {
		pkgs, err := lintkit.Load(dir, "./...")
		if err != nil {
			t.Fatal(err)
		}
		w.add(pkgs, dir == root)
	}
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
			pos := p.Fset.Position(obj.Pos())
			w.decls[key] = &reachDecl{
				name:   declName(obj),
				pkg:    p.Path,
				pos:    filepath.Base(pos.Filename) + ":" + strconv.Itoa(pos.Line),
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
