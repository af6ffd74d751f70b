// Package snapcheck enforces the one-snapshot-per-statement read
// discipline in the execution engine: operators may not read base-table
// state through *catalog.Table accessors (Snapshot, Rows, Bytes,
// DistinctCount) directly — every read goes through the statement's
// captured snapshot, Ctx.SnapFor / Ctx.Snaps, so a statement observes one
// consistent epoch front to back even while writers commit.
//
// Ctx.SnapFor itself is the sanctioned capture point; other sites carry a
// //recycledb:snap-ok justification or are findings. Resolving a table
// handle by name (Catalog.Table) is not a data read and stays legal.
package snapcheck

import (
	"go/ast"

	"recycledb/internal/analysis"
)

// Analyzer is the snapcheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "snapcheck",
	Doc: "forbid direct catalog.Table data reads in exec operators; " +
		"base-table reads go through the statement snapshot (Ctx.SnapFor)",
	Run: run,
}

const catalogPath = "recycledb/internal/catalog"

// dataReaders are the *catalog.Table methods that observe table data (as
// opposed to resolving handles or schema, which are epoch-independent).
var dataReaders = map[string]bool{
	"Snapshot":      true,
	"Rows":          true,
	"Bytes":         true,
	"DistinctCount": true,
	"DataVersion":   true,
	"Tag":           true,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if fn.Name.Name == "SnapFor" {
				continue // the sanctioned snapshot capture point
			}
			checkFunc(pass, fn)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !dataReaders[sel.Sel.Name] {
			return true
		}
		tv, ok := pass.TypesInfo.Types[sel.X]
		if !ok || !analysis.TypeIs(tv.Type, catalogPath, "Table") {
			return true
		}
		if pass.Annotated(call.Pos(), "snap-ok") {
			return true
		}
		pass.Reportf(call.Pos(), "direct catalog.Table.%s read in %s: operators read base tables "+
			"through the statement snapshot (Ctx.SnapFor); justify exceptions with //recycledb:snap-ok",
			sel.Sel.Name, fn.Name.Name)
		return true
	})
}
