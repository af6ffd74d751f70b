// Package ctxcheck enforces the engine's cancellation contract:
//
//   - Library packages never mint their own context.Background() /
//     context.TODO() — the caller's context threads through everything, so
//     a statement's deadline and cancellation reach every operator. The
//     documented nil-context fallbacks carry //recycledb:ctx-ok
//     justifications.
//   - Operator Next methods (any method Next(ctx *exec.Ctx)) observe
//     cancellation at batch boundaries: the body must consult
//     Ctx.Interrupted (or the raw context's Err/Done) so a canceled query
//     stops within one vector of work. The fused push driver — step
//     methods taking *exec.Ctx — is held to the same contract: a fused
//     loop replaces a whole chain of Next calls, so missing the check
//     there loses cancellation for the entire fragment, not one operator.
package ctxcheck

import (
	"go/ast"

	"recycledb/internal/analysis"
)

// Analyzer is the ctxcheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "ctxcheck",
	Doc: "forbid context.Background/TODO in library packages and require " +
		"operator Next methods to observe cancellation at batch boundaries",
	Run: run,
}

const execPath = "recycledb/internal/exec"

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkBackground(pass, fn)
			checkNextObservesCtx(pass, fn)
		}
	}
	return nil
}

// checkBackground flags context.Background() / context.TODO() calls.
func checkBackground(pass *analysis.Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Background" && sel.Sel.Name != "TODO") {
			return true
		}
		obj := pass.TypesInfo.ObjectOf(sel.Sel)
		if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "context" {
			return true
		}
		if pass.Annotated(call.Pos(), "ctx-ok") {
			return true
		}
		pass.Reportf(call.Pos(), "context.%s() in library code: thread the caller's context "+
			"through instead, or justify a documented fallback with //recycledb:ctx-ok",
			sel.Sel.Name)
		return true
	})
}

// driverNames are the batch-boundary methods bound to the cancellation
// contract: pull-operator Next, plus the fused push driver step, which
// pushes one source batch through the consumer chain and claims morsels.
var driverNames = map[string]bool{
	"Next": true,
	"step": true,
}

// checkNextObservesCtx requires driver methods taking a *exec.Ctx first
// parameter to consult cancellation somewhere in their body.
func checkNextObservesCtx(pass *analysis.Pass, fn *ast.FuncDecl) {
	if !driverNames[fn.Name.Name] || fn.Recv == nil || fn.Type.Params == nil ||
		len(fn.Type.Params.List) == 0 {
		return
	}
	tv, ok := pass.TypesInfo.Types[fn.Type.Params.List[0].Type]
	if !ok || !analysis.TypeIs(tv.Type, execPath, "Ctx") {
		return
	}
	if pass.Annotated(fn.Pos(), "ctx-ok") {
		return
	}
	observed := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if observed {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			switch analysis.CalleeName(x) {
			case "Interrupted", "Err":
				observed = true
			}
		case *ast.SelectorExpr:
			if x.Sel.Name == "Done" {
				observed = true
			}
		}
		return true
	})
	if !observed {
		pass.Reportf(fn.Pos(), "operator %s.%s does not observe ctx cancellation: call "+
			"ctx.Interrupted() at the batch boundary (or justify with //recycledb:ctx-ok)",
			recvName(fn), fn.Name.Name)
	}
}

func recvName(fn *ast.FuncDecl) string {
	if fn.Recv != nil && len(fn.Recv.List) > 0 {
		return analysis.ExprString(fn.Recv.List[0].Type)
	}
	return "?"
}
