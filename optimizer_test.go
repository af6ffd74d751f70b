package recycledb

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"recycledb/internal/opt"
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
	cold, err := ExplainText(e, q)
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
	warm, err := ExplainText(e, q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warm, "[cached]") {
		t.Fatalf("warm explain shows no cached subtree:\n%s", warm)
	}

	// Deterministic: rendering twice against the same state is identical.
	again, err := ExplainText(e, q)
	if err != nil {
		t.Fatal(err)
	}
	if again != warm {
		t.Fatalf("explain not deterministic:\n%s\nvs\n%s", warm, again)
	}

	if _, err := ExplainText(e, `INSERT INTO sales VALUES ('north', 1, 2.0, 3, date '1996-01-01')`); !errors.Is(err, ErrParse) {
		t.Fatalf("explain of DML: got %v, want a parse error", err)
	}
}

// EXPLAIN prints the plan the statement runs, not a fresh optimization: a
// decision the optimized-shape cache holds is what the next execution
// replays, so it is what EXPLAIN shows, even after the recycler's warmth
// would steer a fresh Optimize elsewhere. Reading the plan takes no
// statement slot and leaves the recycler as it was.
func TestExplainShowsTheShapeThatRuns(t *testing.T) {
	e := New(Config{Mode: Off, Parallelism: 1})
	loadSales(e, 20000)
	ctx := context.Background()
	const q = `SELECT region, amount, qty FROM sales WHERE amount < 50 AND qty > 5`
	// With recycling off the graph stays empty, so the memoized decision is
	// the cold one: canonical order, amount < 50 nearest the scan.
	if _, err := e.Exec(ctx, q); err != nil {
		t.Fatal(err)
	}
	// Warm the conjunct the cold plan ordered last.
	e.SetMode(Speculative)
	for i := 0; i < 2; i++ {
		if _, err := e.Exec(ctx, `SELECT region, amount, qty FROM sales WHERE qty > 5`); err != nil {
			t.Fatal(err)
		}
	}
	stmt, err := e.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	_, p, err := stmt.bind(nil, true)
	if err != nil {
		t.Fatal(err)
	}
	octx := e.optContext(e.captureEpoch(p))
	if p, err = opt.Optimize(p, octx); err != nil {
		t.Fatal(err)
	}
	fresh := opt.Render(p, opt.Annotate(p, octx))

	before := e.Recycler().Stats()
	rows, err := e.Query(ctx, "EXPLAIN "+q)
	if err != nil {
		t.Fatal(err)
	}
	if n := e.ActiveStatements(); n != 0 {
		t.Fatalf("an open EXPLAIN holds %d statement slots", n)
	}
	res, err := rows.Collect()
	if err != nil {
		t.Fatal(err)
	}
	after := e.Recycler().Stats()
	before.MatchTime, after.MatchTime = 0, 0
	if before != after {
		t.Fatalf("EXPLAIN changed the recycler:\n%+v\n%+v", before, after)
	}
	if len(res.Schema) != 1 || res.Schema[0].Name != "QUERY PLAN" {
		t.Fatalf("EXPLAIN schema %v", res.Schema)
	}
	explained := strings.Join(res.Batches[0].Vecs[0].Str, "\n") + "\n"

	want := []string{"project[region,amount,qty]", "select[(qty>5)]", "select[(amount<50)]", "scan[sales(region,amount,qty)]"}
	if got := shapeOf(explained); !slices.Equal(got, want) {
		t.Fatalf("EXPLAIN shape %v, want the memoized %v:\n%s", got, want, explained)
	}
	if got := shapeOf(fresh); slices.Equal(got, want) {
		t.Fatalf("a fresh Optimize keeps the memoized shape; the test shows nothing:\n%s", fresh)
	}
	// Running q executes the explained shape: amount < 50 over the scan is
	// seen for the first time.
	if seen(explained, "select[(amount<50)]") {
		t.Fatalf("amount < 50 over the scan already seen:\n%s", explained)
	}
	if _, err := e.Exec(ctx, q); err != nil {
		t.Fatal(err)
	}
	again, err := ExplainText(e, q)
	if err != nil {
		t.Fatal(err)
	}
	if !seen(again, "select[(amount<50)]") {
		t.Fatalf("the run did not execute the explained shape:\n%s", again)
	}
}

// shapeOf lists a rendered plan's nodes top-down, without annotations.
func shapeOf(rendered string) []string {
	var out []string
	for _, line := range strings.Split(strings.TrimSpace(rendered), "\n") {
		node, _, _ := strings.Cut(strings.TrimSpace(line), "  (")
		out = append(out, node)
	}
	return out
}

// seen reports whether the rendered plan marks node as a subtree the
// recycler graph holds.
func seen(rendered, node string) bool {
	for _, line := range strings.Split(rendered, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), node+"  (") {
			return strings.Contains(line, "[seen]")
		}
	}
	return false
}
