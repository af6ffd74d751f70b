package recycledb

import (
	"context"
	"fmt"
	"testing"

	"recycledb/internal/catalog"
	"recycledb/internal/sql"
	"recycledb/internal/tpch"
	"recycledb/internal/vector"
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

// TestTopNTiesMatchOff runs a top-N whose price key ties among the rows
// near its bound in every mode at Parallelism 1 and 4, three times each:
// every run must return Off's rows in Off's order. Tied rows keep their scan
// order, so a top-N is a function of its ordered input: Proactive's
// topN(10) over a widened topN(10000) returns Off's topN(10), and Off's
// LIMIT 10 is a prefix of its LIMIT 12.
func TestTopNTiesMatchOff(t *testing.T) {
	cat := catalog.New()
	tpch.Generate(cat, 0.005, 1)
	q := func(n int) string {
		return fmt.Sprintf(`SELECT l_orderkey, l_extendedprice FROM lineitem
		        WHERE l_quantity < 30 ORDER BY l_extendedprice DESC LIMIT %d`, n)
	}
	rowsOf := func(r *Result) [][]vector.Datum {
		var rows [][]vector.Datum
		for _, b := range r.Raw().Batches {
			for i := 0; i < b.Len(); i++ {
				rows = append(rows, b.Row(i))
			}
		}
		return rows
	}
	same := func(a, b [][]vector.Datum) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			for c := range a[i] {
				if !a[i][c].Equal(b[i][c]) {
					return false
				}
			}
		}
		return true
	}
	off := NewWithCatalog(Config{Mode: Off, Parallelism: 1}, cat)
	want := rowsOf(off.mustSQL(t, q(10)))
	if len(want) != 10 {
		t.Fatalf("Off LIMIT 10 returned %d rows", len(want))
	}
	if want12 := rowsOf(off.mustSQL(t, q(12))); !same(want, want12[:min(10, len(want12))]) {
		t.Fatalf("Off LIMIT 10 is not a prefix of LIMIT 12:\n%v\n%v", want, want12)
	}
	for _, mode := range []Mode{Off, History, Speculative, Proactive} {
		for _, par := range []int{1, 4} {
			e := NewWithCatalog(Config{Mode: mode, Parallelism: par}, cat)
			for run := 1; run <= 3; run++ {
				if got := rowsOf(e.mustSQL(t, q(10))); !same(got, want) {
					t.Fatalf("%v at Parallelism %d, run %d:\n got %v\nwant %v", mode, par, run, got, want)
				}
			}
		}
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
