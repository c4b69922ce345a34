// Package scratchown enforces the DESIGN.md §9 scratch-arena ownership
// rules that make pooled scratch memory race-free: a *pipeline.Scratch is
// a single-goroutine lease, threaded by parameter, returned to its pool,
// and never referenced again.
//
// Rules:
//
//  1. noField (§9 rule 1): a Scratch must not be stored in a struct field
//     — fields outlive the lease and invite cross-goroutine sharing.
//     (*pipeline.ScratchPool fields are fine: pools are shared by design.)
//  2. noGoCapture (§9 rule 2): a goroutine must not capture or receive an
//     enclosing scope's Scratch — each worker or runner leases its own arena
//     inside its own goroutine (`sc := pool.Get()` in the goroutine body).
//     The SDP restart fan-out (DESIGN.md §14) is the canonical sanctioned
//     shape: the caller's arena keeps the pre-carved factor blocks, and
//     each extra restart runner opens `rsc := env.Scratch.Get()` /
//     `defer env.Scratch.Put(rsc)` inside its goroutine for the workspace
//     it descends with. Pool, Env, and Budget captures are exempt — those
//     are shared by design; only the leased arena is single-goroutine.
//  3. noUseAfterPut (§9 rule 3): after pool.Put(sc), sc (and every buffer
//     carved from it) belongs to the next lessee; any later use of sc in
//     the same block is a finding. `defer pool.Put(sc)` is the idiomatic
//     shape and is exempt.
//  4. noChanSend: sending a Scratch across a channel hands the lease to
//     another goroutine — same hazard as rule 2.
//
// The defining package (internal/pipeline) is exempt: the pool and arena
// internals necessarily hold scratches in fields.
package scratchown

import (
	"go/ast"
	"go/types"

	"mpl/internal/lint/lintkit"
)

// Analyzer is the scratch-ownership checker.
var Analyzer = &lintkit.Analyzer{
	Name: "scratchown",
	Doc: "enforces pipeline.Scratch ownership (DESIGN.md §9): no struct fields,\n" +
		"no goroutine captures, no channel sends, no use after Put",
	Run: run,
}

func run(pass *lintkit.Pass) error {
	if lintkit.PathWithin(pass.Path, "internal/pipeline") {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				checkNoField(pass, n)
			case *ast.GoStmt:
				checkGoStmt(pass, n)
			case *ast.SendStmt:
				if isScratchExpr(pass, n.Value) {
					pass.Reportf(n.Pos(), "pipeline.Scratch sent on a channel: the lease is single-goroutine (DESIGN.md §9 rule 2); the receiver must lease its own arena")
				}
			case *ast.FuncDecl:
				if n.Body != nil {
					checkUseAfterPut(pass, n.Body)
				}
			}
			return true
		})
	}
	return nil
}

// isScratchType matches pipeline.Scratch / *pipeline.Scratch by name and
// defining-package tail, so fixture stubs under internal/pipeline match
// like the real package.
func isScratchType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Scratch" && obj.Pkg() != nil && lintkit.PathWithin(obj.Pkg().Path(), "internal/pipeline")
}

func isScratchExpr(pass *lintkit.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.Type != nil && isScratchType(tv.Type)
}

// checkNoField applies rule 1 to one struct type.
func checkNoField(pass *lintkit.Pass, st *ast.StructType) {
	for _, field := range st.Fields.List {
		tv, ok := pass.TypesInfo.Types[field.Type]
		if !ok || tv.Type == nil {
			continue
		}
		if isScratchType(tv.Type) {
			pass.Reportf(field.Pos(), "pipeline.Scratch stored in a struct field outlives its lease (DESIGN.md §9 rule 1); thread it as a parameter")
		}
	}
}

// checkGoStmt applies rule 2: `go func(){ ...sc... }()` capturing an outer
// Scratch, or `go f(sc)` passing one, hands the caller's lease to another
// goroutine.
func checkGoStmt(pass *lintkit.Pass, g *ast.GoStmt) {
	for _, arg := range g.Call.Args {
		if isScratchExpr(pass, arg) {
			pass.Reportf(arg.Pos(), "pipeline.Scratch passed into a goroutine: the lease is single-goroutine (DESIGN.md §9 rule 2); lease inside the goroutine instead")
		}
	}
	lit, ok := g.Call.Fun.(*ast.FuncLit)
	if !ok {
		return
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil || !isScratchVar(obj) {
			return true
		}
		// Declared inside the literal: the goroutine's own lease — the
		// sanctioned runner pattern.
		if lit.Body.Pos() <= obj.Pos() && obj.Pos() <= lit.Body.End() {
			return true
		}
		pass.Reportf(id.Pos(), "goroutine captures pipeline.Scratch %s from its enclosing scope (DESIGN.md §9 rule 2); runners lease their own arena with pool.Get() inside the goroutine", id.Name)
		return true
	})
}

func isScratchVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && isScratchType(v.Type())
}

// checkUseAfterPut applies rule 3 with a straight-line scan of each block:
// a non-deferred pool.Put(sc) kills sc for the statements after it in the
// same block (branch-crossing liveness is left to the race detector).
func checkUseAfterPut(pass *lintkit.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		dead := map[types.Object]bool{}
		for _, stmt := range block.List {
			// Reassignment revives the variable (a fresh lease): the plain
			// identifier on the left is the new lease's home, not a use of
			// the dead one, so it is exempted before uses are reported.
			if as, ok := stmt.(*ast.AssignStmt); ok {
				if len(dead) > 0 {
					for _, rhs := range as.Rhs {
						reportDeadUses(pass, rhs, dead)
					}
				}
				for _, lhs := range as.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						if obj := pass.TypesInfo.Uses[id]; obj != nil {
							delete(dead, obj)
						}
					} else if len(dead) > 0 {
						reportDeadUses(pass, lhs, dead) // e.g. sc.buf = ... stores into a dead arena
					}
				}
			} else if len(dead) > 0 {
				reportDeadUses(pass, stmt, dead)
			}
			if obj := putTarget(pass, stmt); obj != nil {
				dead[obj] = true
			}
		}
		return true
	})
}

// putTarget matches the statement form `pool.Put(sc)` (any receiver whose
// method is named Put with a single Scratch argument) and returns sc's
// object.
func putTarget(pass *lintkit.Pass, stmt ast.Stmt) types.Object {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return nil
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Put" {
		return nil
	}
	id, ok := call.Args[0].(*ast.Ident)
	if !ok || !isScratchExpr(pass, id) {
		return nil
	}
	return pass.TypesInfo.Uses[id]
}

func reportDeadUses(pass *lintkit.Pass, node ast.Node, dead map[types.Object]bool) {
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := pass.TypesInfo.Uses[id]; obj != nil && dead[obj] {
			pass.Reportf(id.Pos(), "%s used after being returned to its pool with Put (DESIGN.md §9 rule 3); the arena now belongs to the next lessee", id.Name)
		}
		return true
	})
}
