package plan

import (
	"testing"

	"recycledb/internal/expr"
)

// TestSpineNodes pins the enumeration the fused compiler consumes: the
// source first, then every interior node up to the root, for every kind of
// source — a base scan, a table function, a blocking operator — and with an
// Aggregate root standing outside its own spine.
func TestSpineNodes(t *testing.T) {
	scan := NewScan("t", "a", "b")
	sel := NewSelect(scan, expr.Gt(expr.C("a"), expr.Int(1)))
	join := NewJoin(Inner, sel, NewScan("d", "k"), []string{"a"}, []string{"k"})
	proj := NewProject(join, P(expr.C("a"), "a"))
	fn := NewTableFn("f")
	fnSel := NewSelect(fn, expr.Gt(expr.C("a"), expr.Int(1)))
	sorted := NewSort(sel, SortKey{Col: "a"})
	limit := NewLimit(sel, 5)

	cases := []struct {
		name string
		root *Node
		want []*Node
	}{
		{"scan-leaf", proj, []*Node{scan, sel, join, proj}},
		{"select", sel, []*Node{scan, sel}},
		{"agg-over-spine", NewAggregate(proj, []string{"a"}, A(Count, nil, "n")), []*Node{scan, sel, join, proj}},
		{"agg-over-scan", NewAggregate(scan, nil, A(Count, nil, "n")), []*Node{scan}},
		{"tablefn-leaf", fnSel, []*Node{fn, fnSel}},
		{"agg-over-sort", NewAggregate(sorted, nil, A(Count, nil, "n")), []*Node{sorted}},
		{"non-fragment-root", limit, []*Node{limit}},
	}
	for _, c := range cases {
		got := SpineNodes(c.root, nil)
		if len(got) != len(c.want) {
			t.Errorf("%s: spine length = %d, want %d", c.name, len(got), len(c.want))
			continue
		}
		for i, w := range c.want {
			if got[i] != w {
				t.Errorf("%s: spine[%d] = %v, want %v", c.name, i, got[i].Op, w.Op)
			}
		}
	}
}

// TestSpineNodesBarriers pins the source rule for recycler decorations: a
// barrier on an interior node ends the spine there and hands that node back
// as the source; a barrier on the root does not, because the root's
// decoration wraps the fragment's output; an Aggregate's child is not exempt.
func TestSpineNodesBarriers(t *testing.T) {
	scan := NewScan("t", "a")
	inner := NewSelect(scan, expr.Gt(expr.C("a"), expr.Int(1)))
	root := NewProject(inner, P(expr.C("a"), "a"))
	on := func(x *Node) func(*Node) bool { return func(n *Node) bool { return n == x } }

	if s := SpineNodes(root, on(inner)); len(s) != 2 || s[0] != inner || s[1] != root {
		t.Fatalf("interior barrier must become the source: %v", s)
	}
	if s := SpineNodes(root, on(root)); len(s) != 3 || s[0] != scan {
		t.Fatalf("root barrier must not stop the walk: %v", s)
	}
	if s := SpineNodes(root, on(scan)); len(s) != 3 || s[0] != scan {
		t.Fatalf("a decorated scan is still the source: %v", s)
	}

	agg := NewAggregate(root, nil, A(Count, nil, "n"))
	if s := SpineNodes(agg, on(root)); len(s) != 1 || s[0] != root {
		t.Fatalf("barrier under an aggregate is its source: %v", s)
	}
	if s := SpineNodes(agg, on(agg)); len(s) != 3 || s[0] != scan {
		t.Fatalf("barrier on the aggregate itself must not stop the walk: %v", s)
	}

	// Join build sides may contain barriers freely: they are separate
	// subplans, not spine members.
	buildSide := NewSelect(NewScan("d", "k"), expr.Gt(expr.C("k"), expr.Int(0)))
	join := NewJoin(Inner, root, buildSide, []string{"a"}, []string{"k"})
	if s := SpineNodes(join, on(buildSide)); len(s) != 4 || s[0] != scan {
		t.Fatalf("build-side barrier must not stop the probe spine: %v", s)
	}
}
