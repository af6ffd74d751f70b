package exec

// Test constructors for one-stage pull-sourced fragments: a filter, project,
// join probe or aggregation over an arbitrary child Operator, assembled from
// the same stage methods and roots buildFragment uses. They let operator-level
// tests feed the one interior from any source without going through a plan.

import (
	"testing"

	"recycledb/internal/catalog"
	"recycledb/internal/expr"
	"recycledb/internal/plan"
)

func pullPipe(child Operator, out catalog.Schema) (*fragRoot, *fusedPipe) {
	return &fragRoot{base: base{schema: out}}, &fusedPipe{schema: out, child: child}
}

// pipeFilter binds pred against child's schema and filters child by it.
func pipeFilter(t testing.TB, child Operator, pred expr.Expr) *FusedPipeline {
	t.Helper()
	if _, err := pred.Bind(child.Schema()); err != nil {
		t.Fatal(err)
	}
	root, p := pullPipe(child, child.Schema())
	p.addFilter(pred)
	return newFusedPipeline(root, p)
}

// pipeProject binds exprs against child's schema and projects child to out.
func pipeProject(t testing.TB, child Operator, exprs []expr.Expr, out catalog.Schema) *FusedPipeline {
	t.Helper()
	for _, e := range exprs {
		if _, err := e.Bind(child.Schema()); err != nil {
			t.Fatal(err)
		}
	}
	root, p := pullPipe(child, out)
	p.addProject(exprs, out)
	return newFusedPipeline(root, p)
}

// pipeJoin probes left against a build of right.
func pipeJoin(jt plan.JoinType, left, right Operator, leftCols, rightCols []int, out catalog.Schema) *FusedPipeline {
	root, p := pullPipe(left, out)
	sb := newSharedBuild(jt, left.Schema(), right, leftCols, rightCols, 1)
	root.builds = []*sharedBuild{sb}
	p.addProbe(sb, out)
	return newFusedPipeline(root, p)
}

// pipeAgg aggregates child.
func pipeAgg(child Operator, groupCols []int, aggs []AggExpr, out catalog.Schema) *AggOp {
	_, p := pullPipe(child, child.Schema())
	return newAggOp(&fragRoot{base: base{schema: out}}, groupCols, aggs, []*fusedPipe{p})
}
