package recycledb

import (
	"context"
	"strings"
	"testing"

	"recycledb/internal/plan"
)

// Parameter-free SELECT templates are statically normalized when they
// compile: the scan is pruned to the columns the statement reads.
func TestPrepareNormalizesTemplate(t *testing.T) {
	e := New(Config{Mode: Speculative})
	loadSales(e, 2000)
	stmt, err := e.Prepare(`SELECT region FROM sales WHERE qty > 5`)
	if err != nil {
		t.Fatal(err)
	}
	// Only region and qty survive out of sales' five columns.
	scan := findScan(stmt.cur.Load().c.Query.Plan)
	if scan == nil || len(scan.Cols) != 2 {
		t.Fatalf("template scan not pruned: %v", scan)
	}
}

func findScan(n *plan.Node) *plan.Node {
	if n.Op == plan.Scan {
		return n
	}
	for _, c := range n.Children {
		if s := findScan(c); s != nil {
			return s
		}
	}
	return nil
}

// EXPLAIN renders the chosen plan with per-node cost estimates, and marks
// recycler-matched subtrees once the cache is warm.
func TestEngineExplain(t *testing.T) {
	e := New(Config{Mode: Speculative})
	loadSales(e, 2000)

	const q = `SELECT region, sum(amount) AS total FROM sales WHERE qty > 5 GROUP BY region`
	cold, err := e.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cold, "cost≈") || !strings.Contains(cold, "rows≈") {
		t.Fatalf("explain missing cost annotations:\n%s", cold)
	}
	if strings.Contains(cold, "[cached]") {
		t.Fatalf("cold explain claims a cached subtree:\n%s", cold)
	}

	// Warm the cache, then the same plan must show a [cached] subtree.
	if _, err := e.Exec(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	warm, err := e.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warm, "[cached]") {
		t.Fatalf("warm explain shows no cached subtree:\n%s", warm)
	}

	// Deterministic: rendering twice against the same state is identical.
	again, err := e.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if again != warm {
		t.Fatalf("explain not deterministic:\n%s\nvs\n%s", warm, again)
	}

	if _, err := e.Explain(`INSERT INTO sales VALUES ('north', 1, 2.0, 3, date '1996-01-01')`); err == nil {
		t.Fatal("explain of DML did not fail")
	}
}
