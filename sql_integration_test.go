package recycledb

import (
	"context"
	"testing"

	"recycledb/internal/sql"
	"recycledb/internal/tpch"
)

// SQL-to-recycler integration: queries arriving through the SQL front-end
// flow through the same matching/reuse pipeline as built plans.

func sqlEngine(t *testing.T, mode Mode) *Engine {
	t.Helper()
	e := New(Config{Mode: mode})
	tpch.Generate(e.Catalog(), 0.002, 1)
	return e
}

func (e *Engine) mustSQL(t *testing.T, q string) *Result {
	t.Helper()
	c, err := sql.CompileStatement(q, e.Catalog())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	r, err := e.ExecuteContext(context.Background(), c.Query.Plan)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	return r
}

func TestSQLQueriesRecycle(t *testing.T) {
	e := sqlEngine(t, Speculative)
	q := `SELECT l_returnflag, sum(l_quantity) AS q, count(*) AS n
	      FROM lineitem WHERE l_shipdate <= DATE '1998-09-02'
	      GROUP BY l_returnflag ORDER BY l_returnflag`
	r1 := e.mustSQL(t, q)
	r2 := e.mustSQL(t, q)
	if r2.Stats.Reused == 0 {
		t.Fatalf("repeated SQL should reuse: %+v", r2.Stats)
	}
	sameResults(t, r1, r2)
}

func TestSQLAliasesUnifyInGraph(t *testing.T) {
	e := sqlEngine(t, Speculative)
	// Different output aliases, same operation: one graph family.
	e.mustSQL(t, `SELECT o_orderpriority, count(*) AS a FROM orders GROUP BY o_orderpriority`)
	before := e.Recycler().Stats().GraphNodes
	r := e.mustSQL(t, `SELECT o_orderpriority, count(*) AS b FROM orders GROUP BY o_orderpriority`)
	after := e.Recycler().Stats().GraphNodes
	if after != before {
		t.Fatalf("aliased twin grew the graph: %d -> %d", before, after)
	}
	if r.Stats.Reused == 0 {
		t.Fatalf("aliased twin should reuse: %+v", r.Stats)
	}
}

func TestSQLJoinQueryThroughEngine(t *testing.T) {
	e := sqlEngine(t, Speculative)
	q := `SELECT n_name, count(*) AS suppliers
	      FROM supplier, nation
	      WHERE s_nationkey = n_nationkey
	      GROUP BY n_name ORDER BY suppliers DESC LIMIT 5`
	r1 := e.mustSQL(t, q)
	if r1.Rows() == 0 || r1.Rows() > 5 {
		t.Fatalf("rows = %d", r1.Rows())
	}
	r2 := e.mustSQL(t, q)
	if r2.Stats.Reused == 0 {
		t.Fatal("join query should reuse")
	}
}

func TestSQLProactiveTopN(t *testing.T) {
	// Scale factor 0.02 (30k orders): the widened top-N (10k rows) must cost
	// more to recompute than to copy, or speculation declines to store it.
	e := New(Config{Mode: Proactive})
	tpch.Generate(e.Catalog(), 0.02, 1)
	q := func(n string) string {
		return `SELECT o_orderkey, o_totalprice FROM orders
		        ORDER BY o_totalprice DESC LIMIT ` + n
	}
	r1 := e.mustSQL(t, q("10"))
	if !r1.Stats.ProactiveApplied {
		t.Fatalf("top-N widening expected: %+v", r1.Stats)
	}
	r2 := e.mustSQL(t, q("30"))
	if r2.Rows() != 30 {
		t.Fatalf("rows = %d", r2.Rows())
	}
	if r2.Stats.Reused == 0 && r2.Stats.SubsumptionReused == 0 {
		t.Fatalf("widened result should serve a larger N: %+v", r2.Stats)
	}
}
