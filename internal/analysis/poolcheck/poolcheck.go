// Package poolcheck machine-checks the vector.Pool ownership discipline
// (vector/pool.go "Ownership rules"):
//
//   - Pooled memory stored into an operator's field must be returned to the
//     pool in a Close or close of the field's type. Acquisitions are a
//     vector or batch drawn via Pool.Get/GetBatch (in Open, or lazily in
//     Next/build helpers), a plain slice drawn via a Slices pool's
//     Get/Reserve/Grow, and blocking state grown in place by
//     Pool.Reserve/ReserveBatch/Grow; releases are Pool.Put/PutBatch and
//     Slices.Put rooted at a field of the same type. The vector package
//     itself, which implements the pool, is exempt. Acquire/release
//     pairing is keyed by the field's
//     owning named type, not the enclosing method's receiver, so scratch
//     assigned through element-pointer locals — the fused consumer chain's
//     `s := &p.stages[i]; s.flags = pool.Get(...)` released by a matching
//     `pool.Put(s.flags)` in the pipe's close — is tracked the same way as
//     plain receiver fields. A missed release silently degrades the
//     steady-state zero-allocation contract; a double ownership silently
//     corrupts a future query, because cached results are long-lived.
//   - Batches destined for recycler-held results (Store.buf,
//     catalog.Result.Batches, core.Entry.Batches) must be deep Clones:
//     operator output batches are pooled or alias table storage and are
//     only valid until the next Next call.
//
// Sites where ownership provably transfers elsewhere carry a
// //recycledb:pool-ok or //recycledb:clone-ok justification.
package poolcheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"recycledb/internal/analysis"
)

// Analyzer is the poolcheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "poolcheck",
	Doc: "pooled batches stored in operator fields must be released in Close, " +
		"and recycler-destined result buffers must hold deep clones",
	Run: run,
}

const (
	vectorPath  = "recycledb/internal/vector"
	catalogPath = "recycledb/internal/catalog"
	corePath    = "recycledb/internal/core"
	execPath    = "recycledb/internal/exec"
)

// fieldKey names one pooled storage slot: a field of a named type. The
// key deliberately ignores which method touched the slot — an acquire in
// fusedPipe.open pairs with a release in fusedPipe.close even though the
// slot lives on a fusedStage reached through a slice-element pointer.
type fieldKey struct {
	typ   *types.Named
	field string
}

type acquire struct {
	key  fieldKey
	pos  token.Pos
	what string // the acquiring method: Get, GetBatch, Reserve, ...
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Path() == vectorPath {
		return nil
	}
	var acquires []acquire              // pooled slots assigned outside Close
	releases := make(map[fieldKey]bool) // slots released in some Close/close

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if analysis.ReceiverType(pass.TypesInfo, fn) != nil {
				switch fn.Name.Name {
				case "Close", "close":
					collectReleases(pass, fn, releases)
				default:
					collectAcquires(pass, fn, &acquires)
				}
			}
			checkCloneDiscipline(pass, fn)
		}
	}

	for _, a := range acquires {
		if releases[a.key] {
			continue
		}
		if pass.Annotated(a.pos, "pool-ok") {
			continue
		}
		pass.Reportf(a.pos, "pooled %s stored in %s.%s is never released: Close must "+
			"Put/PutBatch it back (or justify ownership transfer with //recycledb:pool-ok)",
			a.what, a.key.typ.Obj().Name(), a.key.field)
	}
	return nil
}

// poolMethod reports whether call invokes the named method on
// vector.Pool, e.g. ctx.pool().GetBatch(...) or p.Put(v).
func poolMethod(pass *analysis.Pass, call *ast.CallExpr, names ...string) (string, bool) {
	return methodOn(pass, call, "Pool", names)
}

// slicesMethod reports whether call invokes the named method on a
// vector.Slices pool, e.g. pool.I32.Reserve(s, n) or groupOrds.Put(s).
func slicesMethod(pass *analysis.Pass, call *ast.CallExpr, names ...string) (string, bool) {
	return methodOn(pass, call, "Slices", names)
}

// methodOn reports whether call invokes one of names on the vector type
// typeName (any instantiation of a generic one).
func methodOn(pass *analysis.Pass, call *ast.CallExpr, typeName string, names []string) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	match := false
	for _, n := range names {
		if sel.Sel.Name == n {
			match = true
			break
		}
	}
	if !match {
		return "", false
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok || !analysis.TypeIs(tv.Type, vectorPath, typeName) {
		return "", false
	}
	return sel.Sel.Name, true
}

// drawnCall unwraps the expressions through which pooled memory reaches an
// assignment — s[:n], append(s, ...), parentheses — to the call that drew
// it, or nil.
func drawnCall(e ast.Expr) *ast.CallExpr {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SliceExpr:
			e = x.X
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "append" && len(x.Args) > 0 {
				e = x.Args[0]
				continue
			}
			return x
		default:
			return nil
		}
	}
}

// fieldOf resolves the pooled slot an LHS/argument expression roots in:
// base.f, base.f[i], base.f[:n] or &base.f, where base is any expression of
// a named struct type (or pointer to one) — the method receiver, a nested
// field chain, or an element-pointer local like `s := &p.stages[i]`.
// Returns the zero key when the expression is not a field selection on a
// named type.
func fieldOf(pass *analysis.Pass, e ast.Expr) (fieldKey, bool) {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.IndexExpr:
		e = ast.Unparen(x.X)
	case *ast.SliceExpr:
		e = ast.Unparen(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			e = ast.Unparen(x.X)
		}
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return fieldKey{}, false
	}
	// Only struct fields: a method value or package selector is not a slot.
	if _, ok := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Var); !ok {
		return fieldKey{}, false
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok {
		return fieldKey{}, false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return fieldKey{}, false
	}
	return fieldKey{typ: named, field: sel.Sel.Name}, true
}

// collectAcquires records fields of named types assigned pool-drawn values
// (x.f = pool.GetBatch(...), x.f = pool.I32.Reserve(x.f, n)[:n], ...) and
// fields grown in place through the pool (pool.Reserve(&x.f, n),
// pool.ReserveBatch(x.f, n)).
func collectAcquires(pass *analysis.Pass, fn *ast.FuncDecl, acquires *[]acquire) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range x.Rhs {
				if i >= len(x.Lhs) {
					break
				}
				call := drawnCall(rhs)
				if call == nil {
					continue
				}
				what, ok := poolMethod(pass, call, "Get", "GetBatch")
				if !ok {
					what, ok = slicesMethod(pass, call, "Get", "Reserve", "Grow")
				}
				if !ok {
					continue
				}
				if k, ok := fieldOf(pass, x.Lhs[i]); ok {
					*acquires = append(*acquires, acquire{key: k, pos: x.Pos(), what: what})
				}
			}
		case *ast.CallExpr:
			what, ok := poolMethod(pass, x, "Reserve", "ReserveBatch", "Grow")
			if !ok || len(x.Args) == 0 {
				return true
			}
			if k, ok := fieldOf(pass, x.Args[0]); ok {
				*acquires = append(*acquires, acquire{key: k, pos: x.Pos(), what: what})
			}
		}
		return true
	})
}

// collectReleases records fields whose pooled contents a Close/close
// method returns: direct Put(x.f) or Put(&x.f), indexed Put(x.f[i]), a
// Slices pool's Put(x.f), and the range-value idiom
// `for _, v := range x.f { pool.Put(v) }`.
func collectReleases(pass *analysis.Pass, fn *ast.FuncDecl, releases map[fieldKey]bool) {
	// rangeVals maps a range value variable to the field it iterates, for
	// the drain-a-slice-of-vectors idiom.
	rangeVals := make(map[types.Object]fieldKey)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.RangeStmt:
			if k, ok := fieldOf(pass, x.X); ok && x.Value != nil {
				if id, ok := x.Value.(*ast.Ident); ok {
					if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
						rangeVals[obj] = k
					}
				}
			}
		case *ast.CallExpr:
			_, ok := poolMethod(pass, x, "Put", "PutBatch")
			if !ok {
				_, ok = slicesMethod(pass, x, "Put")
			}
			if !ok {
				return true
			}
			for _, arg := range x.Args {
				if k, ok := fieldOf(pass, arg); ok {
					releases[k] = true
					continue
				}
				if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
					if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
						if k, ok := rangeVals[obj]; ok {
							releases[k] = true
						}
					}
				}
			}
		}
		return true
	})
}

// resultBuffer reports whether e denotes a recycler-destined long-lived
// batch buffer: Store.buf, catalog.Result.Batches, core.Entry.Batches.
func resultBuffer(pass *analysis.Pass, e ast.Expr) (string, bool) {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok {
		return "", false
	}
	switch {
	case sel.Sel.Name == "Batches" && analysis.TypeIs(tv.Type, catalogPath, "Result"):
		return "catalog.Result.Batches", true
	case sel.Sel.Name == "Batches" && analysis.TypeIs(tv.Type, corePath, "Entry"):
		return "core.Entry.Batches", true
	case sel.Sel.Name == "buf" && analysis.TypeIs(tv.Type, execPath, "Store"):
		return "Store.buf", true
	}
	return "", false
}

// checkCloneDiscipline flags appends of non-cloned batches into
// recycler-destined buffers.
func checkCloneDiscipline(pass *analysis.Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || analysis.CalleeName(call) != "append" || len(call.Args) < 2 {
			return true
		}
		buf, ok := resultBuffer(pass, call.Args[0])
		if !ok {
			return true
		}
		for _, arg := range call.Args[1:] {
			if c, ok := ast.Unparen(arg).(*ast.CallExpr); ok {
				if name := analysis.CalleeName(c); name == "Clone" || name == "CloneBatch" {
					continue
				}
			}
			if pass.Annotated(arg.Pos(), "clone-ok") {
				continue
			}
			pass.Reportf(arg.Pos(), "non-clone appended to %s: operator batches are pooled or "+
				"alias table storage and outlive-Next storage corrupts future queries; append "+
				"a deep Clone() (or justify owned memory with //recycledb:clone-ok)", buf)
		}
		return true
	})
}
