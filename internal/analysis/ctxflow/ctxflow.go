// Package ctxflow enforces the pipeline's cancellation discipline: every
// long-running operation observes its caller's context (see DESIGN.md
// §6). Three rules:
//
//   - root rule: context.Background() / context.TODO() must not appear in
//     library (non-main) packages — a stage that manufactures its own
//     root detaches itself from the command's timeout and signal
//     handling. The defensive-default idiom
//
//     if ctx == nil { ctx = context.Background() }
//
//     is recognized and stays legal: it normalizes a caller's nil, it
//     does not detach anything.
//
//   - position rule (every package): a context.Context parameter must be
//     the function's first parameter, per Go convention and so the
//     analyzers (and readers) can find it.
//
//   - loop rule (every package): inside a function that takes a
//     context, a loop that dispatches through an interface method — a
//     platform, monitor or host-like boundary, i.e. the calls that can
//     block or measure — must observe cancellation: by referencing the context (ctx.Err, select on
//     ctx.Done, passing ctx along) or by operating through a
//     hostif.Host value, whose raw operations hostsafe confines to the
//     packages behind the probe's host-op decorator, which checks the
//     context before every operation. Loops over in-memory data (decode
//     passes, model building, report printing) are pure computation on
//     the caller's schedule and stay legal however long they run — the
//     pipeline cancels at operation boundaries, not mid-arithmetic.
package ctxflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"coremap/internal/analysis"
)

// Analyzer is the ctxflow check. The scope is include-by-default: the
// loop rule is self-limiting (it fires only inside ctx-taking functions
// whose loops dispatch through an interface), so packages without host
// boundaries produce nothing, and a new stage package is covered from
// its first commit instead of waiting for a roster edit.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "flags detached context roots in library packages, misplaced context parameters, " +
		"and loops in ctx-taking functions that never observe cancellation",
	Run: run,
	Scope: &analysis.Scope{
		Doc: "every internal library package (the loop rule fires only on interface dispatch in ctx-taking functions)",
		Exclude: map[string]string{
			"coremap/internal/analysis/...": "the lint suite itself: batch AST tooling with no host boundaries or cancellable loops",
		},
	},
}

func run(pass *analysis.Pass) error {
	isLibrary := pass.Pkg.Name() != "main"
	exemptRoots := collectNilGuardRoots(pass)

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if isLibrary && !exemptRoots[n.Pos()] {
					checkRoot(pass, n)
				}
			case *ast.FuncDecl:
				if n.Type != nil {
					checkParamPosition(pass, n.Type)
				}
			case *ast.FuncLit:
				checkParamPosition(pass, n.Type)
			}
			return true
		})
	}

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkLoops(pass, fd)
			}
		}
	}
	return nil
}

// checkRoot flags context.Background() / context.TODO().
func checkRoot(pass *analysis.Pass, call *ast.CallExpr) {
	for _, name := range []string{"Background", "TODO"} {
		if analysis.CalleeIs(pass, call, "context", name) {
			pass.Reportf(call.Pos(),
				"context.%s() creates a detached root in a library package: accept a ctx from the caller (commands own the root)",
				name)
		}
	}
}

// collectNilGuardRoots records the positions of Background/TODO calls
// that implement the `if ctx == nil { ctx = context.Background() }`
// defensive default, which the root rule exempts.
func collectNilGuardRoots(pass *analysis.Pass) map[token.Pos]bool {
	exempt := make(map[token.Pos]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ifs, ok := n.(*ast.IfStmt)
			if !ok {
				return true
			}
			guarded := nilComparedContext(pass, ifs.Cond)
			if guarded == nil {
				return true
			}
			for _, s := range ifs.Body.List {
				as, ok := s.(*ast.AssignStmt)
				if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
					continue
				}
				lhs, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
				if !ok || pass.ObjectOf(lhs) != guarded {
					continue
				}
				if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
					exempt[call.Pos()] = true
				}
			}
			return true
		})
	}
	return exempt
}

// nilComparedContext returns the context-typed object compared against
// nil in cond (`ctx == nil`), or nil.
func nilComparedContext(pass *analysis.Pass, cond ast.Expr) types.Object {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || be.Op != token.EQL {
		return nil
	}
	for _, pair := range [][2]ast.Expr{{be.X, be.Y}, {be.Y, be.X}} {
		id, ok := ast.Unparen(pair[0]).(*ast.Ident)
		if !ok {
			continue
		}
		if nilIdent, ok := ast.Unparen(pair[1]).(*ast.Ident); !ok || nilIdent.Name != "nil" {
			continue
		}
		if obj := pass.ObjectOf(id); obj != nil && analysis.IsContextType(obj.Type()) {
			return obj
		}
	}
	return nil
}

// checkParamPosition flags a context.Context parameter that is not the
// first parameter.
func checkParamPosition(pass *analysis.Pass, ft *ast.FuncType) {
	if ft.Params == nil {
		return
	}
	index := 0
	for _, field := range ft.Params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if analysis.IsContextType(pass.TypeOf(field.Type)) && index > 0 {
			pass.Reportf(field.Pos(),
				"context.Context must be the first parameter (found at position %d)", index+1)
		}
		index += n
	}
}

// checkLoops flags loops in ctx-taking functions that dispatch through
// interface methods but never observe cancellation.
func checkLoops(pass *analysis.Pass, fd *ast.FuncDecl) {
	ctxObjs := contextParams(pass, fd)
	if len(ctxObjs) == 0 {
		return
	}
	analysis.InspectShallow(fd.Body, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch l := n.(type) {
		case *ast.ForStmt:
			body = l.Body
		case *ast.RangeStmt:
			body = l.Body
		default:
			return true
		}
		if callsHost(pass, body) {
			return false // every host op is a cancellation point
		}
		op := interfaceDispatch(pass, body)
		if op == "" {
			return true // pure computation; look at nested loops anyway
		}
		if analysis.UsesAnyObject(pass, body, ctxObjs) || usesAnyContext(pass, body) {
			return false // this loop observes ctx; inner loops inherit that
		}
		pass.Reportf(n.Pos(),
			"loop dispatches %s through an interface but never observes cancellation: check ctx.Err() (or pass ctx along) inside the loop",
			op)
		return false
	})
}

func contextParams(pass *analysis.Pass, fd *ast.FuncDecl) []types.Object {
	var objs []types.Object
	if fd.Type.Params == nil {
		return nil
	}
	for _, field := range fd.Type.Params.List {
		if !analysis.IsContextType(pass.TypeOf(field.Type)) {
			continue
		}
		for _, name := range field.Names {
			if obj := pass.ObjectOf(name); obj != nil {
				objs = append(objs, obj)
			}
		}
	}
	return objs
}

// interfaceDispatch returns the name of the first method the body calls
// on an interface-typed receiver (including inside nested closures —
// work is work regardless of packaging), or "". Interface dispatch is
// the shape of the pipeline's blocking boundaries: a platform, monitor
// or host behind an interface can measure, retry or sleep, so a loop of
// such calls needs a cancellation point. Methods on context.Context and
// error values are exempt — the former are the observation itself, the
// latter are plain accessors.
func interfaceDispatch(pass *analysis.Pass, body *ast.BlockStmt) string {
	found := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		t := pass.TypeOf(sel.X)
		if t == nil {
			return true
		}
		if _, isIface := t.Underlying().(*types.Interface); !isIface {
			return true
		}
		if analysis.IsContextType(t) || analysis.IsErrorType(t) {
			return true
		}
		found = sel.Sel.Name
		return false
	})
	return found
}

// usesAnyContext reports whether the body references any context-typed
// value at all (e.g. a stored p.ctx field rather than the parameter).
func usesAnyContext(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		e, ok := n.(ast.Expr)
		if ok && analysis.IsContextType(pass.TypeOf(e)) {
			found = true
			return false
		}
		return true
	})
	return found
}

// callsHost reports whether the body calls a method on a hostif.Host
// value. Such operations run behind the probe's host-op decorator (hostsafe
// flags them anywhere else), which makes every one a cancellation point.
func callsHost(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			t := pass.TypeOf(sel.X)
			if t != nil && analysis.IsNamedType(t, "coremap/internal/hostif", "Host") {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
