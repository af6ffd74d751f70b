package recycledb

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"recycledb/internal/catalog"
	"recycledb/internal/plan"
	"recycledb/internal/sql"
	"recycledb/internal/vector"
)

// Streaming, context, prepared-statement, and typed-error coverage for the
// server-grade query API (Query / Prepare / Stream / Rows).

func TestQueryCancellationStopsScanEarly(t *testing.T) {
	e := New(Config{Mode: Off})
	loadSales(e, 2_000_000)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, err := e.Query(ctx, `SELECT region, amount FROM sales`)
	if err != nil {
		t.Fatal(err)
	}
	// Consume a few batches, then cancel mid-stream.
	consumed := 0
	for i := 0; i < 3; i++ {
		b, err := rows.Next(ctx)
		if err != nil || b == nil {
			t.Fatalf("batch %d: b=%v err=%v", i, b, err)
		}
		consumed += b.Len()
	}
	cancel()
	if _, err := rows.Next(ctx); !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled after cancel, got %v", err)
	}
	// The context's own sentinel stays in the chain.
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("context.Canceled should remain matchable, got %v", err)
	}
	if consumed >= 2_000_000 {
		t.Fatalf("scan ran to completion (%d rows) despite cancellation", consumed)
	}
}

func TestQueryDeadlineExceeded(t *testing.T) {
	e := New(Config{Mode: Off})
	loadSales(e, 50_000)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	rows, err := e.Query(ctx, `SELECT region, amount FROM sales`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows.Next(ctx); !errors.Is(err, ErrCanceled) ||
		!errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want ErrCanceled wrapping DeadlineExceeded, got %v", err)
	}
}

func TestCanceledBlockingOperatorAborts(t *testing.T) {
	e := New(Config{Mode: Off})
	loadSales(e, 100_000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the sort's build phase runs
	rows, err := e.Query(ctx, `SELECT product, amount FROM sales ORDER BY amount DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows.Next(ctx); !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled from blocking operator, got %v", err)
	}
}

// TestQueryAcceptsComments runs commented SQL through Engine.Query: a
// trailing -- comment, and a /* */ comment holding a ';'.
func TestQueryAcceptsComments(t *testing.T) {
	e := New(Config{Mode: Off})
	loadSales(e, 1000)
	ctx := context.Background()
	count := func(q string) int64 {
		t.Helper()
		rows, err := e.Query(ctx, q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		res, err := rows.Collect()
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		return res.Batches[0].Vecs[0].I64[0]
	}
	want := count(`SELECT count(*) AS n FROM sales WHERE qty > 25`)
	for _, q := range []string{
		"SELECT count(*) AS n FROM sales WHERE qty > 25 -- c",
		"SELECT count(*) AS n /* c; d */ FROM sales WHERE qty > 25",
	} {
		if got := count(q); got != want {
			t.Fatalf("%q: n = %d, want %d", q, got, want)
		}
	}
}

const preparedQ = `SELECT region, sum(amount * qty) AS revenue, count(*) AS n
                   FROM sales WHERE amount > ? GROUP BY region`

func TestPreparedStatementRecyclesAcrossExecutions(t *testing.T) {
	e := New(Config{Mode: History})
	loadSales(e, 5000)
	ctx := context.Background()

	stmt, err := e.Prepare(preparedQ)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.NumParams() != 1 {
		t.Fatalf("NumParams = %d, want 1", stmt.NumParams())
	}
	r1, err := stmt.Exec(ctx, 10.0)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.Reused != 0 || r1.Stats.Stores != 0 {
		t.Fatalf("first sight must neither store nor reuse: %+v", r1.Stats)
	}
	r2, err := stmt.Exec(ctx, 10.0)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Stats.Stores == 0 {
		t.Fatalf("second execution of the same binding should store: %+v", r2.Stats)
	}
	r3, err := stmt.Exec(ctx, 10.0)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Stats.Reused < 1 {
		t.Fatalf("repeated prepared execution should reuse (Reused >= 1): %+v", r3.Stats)
	}
	sameResults(t, r1, r3)

	// A different binding is a different result: no reuse, fresh graph walk.
	r4, err := stmt.Exec(ctx, 95.0)
	if err != nil {
		t.Fatal(err)
	}
	if r4.Stats.Reused != 0 {
		t.Fatalf("different binding must not reuse the old result: %+v", r4.Stats)
	}
	if r4.Rows() == r1.Rows() && r4.Raw().Bytes() == r1.Raw().Bytes() {
		// Not an assertion failure per se, but the bindings were chosen
		// to select differently; flag suspicious equality.
		t.Logf("warning: bindings 10 and 95 produced identical result shapes")
	}
}

func TestPreparedStatementViaEngineQuery(t *testing.T) {
	e := New(Config{Mode: Speculative})
	loadSales(e, 5000)
	ctx := context.Background()
	// Query goes through the same plan cache; identical text+binding
	// recycles on the second run (speculative stores on the first).
	r1, err := e.QueryCollect(ctx, preparedQ, 25.0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.QueryCollect(ctx, preparedQ, 25.0)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Stats.Reused == 0 {
		t.Fatalf("second Query of same text+binding should reuse: %+v", r2.Stats)
	}
	sameResults(t, r1, r2)
	if e.plans.len() != 1 {
		t.Fatalf("one distinct text should occupy one plan-cache slot, got %d", e.plans.len())
	}
}

func TestPlanCacheNormalization(t *testing.T) {
	e := New(Config{Mode: Off})
	loadSales(e, 100)
	ctx := context.Background()
	variants := []string{
		"SELECT region FROM sales LIMIT 1",
		"select   region\n from sales limit 1;",
		"Select region From sales Limit 1",
	}
	for _, q := range variants {
		if _, err := e.QueryCollect(ctx, q); err != nil {
			t.Fatalf("%q: %v", q, err)
		}
	}
	if n := e.plans.len(); n != 1 {
		t.Fatalf("whitespace/keyword-case variants should share one plan, cache holds %d", n)
	}
}

// TestLRU covers the one LRU behind both of its users — the compiled-
// statement cache and the optimized-shape cache — through the same steps.
func TestLRU(t *testing.T) {
	t.Run("plans", func(t *testing.T) {
		testLRU(t, func() *sql.Compiled { return new(sql.Compiled) })
	})
	t.Run("shapes", func(t *testing.T) {
		testLRU(t, func() *plan.Node { return plan.NewScan("t") })
	})
}

func testLRU[V comparable](t *testing.T, mk func() V) {
	c := newLRU[V](2)
	want := func(what, key string, ver int64, v V, hit bool) {
		t.Helper()
		got, ok := c.get(key, ver)
		if ok != hit || (hit && got != v) {
			t.Fatalf("%s: get(%q, %d) = (%v, %v), want (%v, %v)", what, key, ver, got, ok, v, hit)
		}
	}
	var zero V
	a, b, d := mk(), mk(), mk()
	c.put("a", a, 7)
	c.put("b", b, 7)
	want("hit", "a", 7, a, true)
	// "a" was just used, so a third entry evicts "b".
	c.put("d", d, 7)
	want("least recently used after capacity eviction", "b", 7, zero, false)
	want("recently used after capacity eviction", "a", 7, a, true)
	want("newest after capacity eviction", "d", 7, d, true)
	// A lookup under another schema version misses and drops the entry, so
	// a later lookup under the original version misses too.
	want("newer schema version", "a", 8, zero, false)
	want("dropped by the version mismatch", "a", 7, zero, false)
	if c.len() != 1 {
		t.Fatalf("len = %d after mismatch eviction, want 1", c.len())
	}
	// Re-putting a key replaces value and version in place.
	c.put("d", a, 8)
	want("replaced entry", "d", 8, a, true)
	c.flush()
	want("after flush", "d", 8, zero, false)
	if c.len() != 0 {
		t.Fatalf("flush left %d entries behind", c.len())
	}

	off := newLRU[V](0)
	off.put("a", a, 1)
	if _, ok := off.get("a", 1); ok || off.len() != 0 {
		t.Fatal("a zero-capacity LRU stored an entry")
	}
}

// TestConfigSurface pins the exported configuration: a field belongs in
// Config only while a command, an example or a benchmark workload sets it.
// Everything else is internal tuning (see tuning and export_test.go).
func TestConfigSurface(t *testing.T) {
	var got []string
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		got = append(got, typ.Field(i).Name)
	}
	want := []string{"Mode", "CacheBytes", "Parallelism"}
	if !slices.Equal(got, want) {
		t.Fatalf("recycledb.Config fields = %v, want exactly %v", got, want)
	}
}

// TestParseMode pins the one mode vocabulary: short and long names in any
// letter case, and an error — never a silent Off — for anything else.
func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
		ok   bool
	}{
		{"off", Off, true}, {"OFF", Off, true},
		{"hist", History, true}, {"history", History, true}, {"HIST", History, true},
		{"spec", Speculative, true}, {"speculative", Speculative, true}, {"Spec", Speculative, true},
		{"pa", Proactive, true}, {"proactive", Proactive, true}, {"PA", Proactive, true},
		{"spce", Off, false}, {"SPEC ", Off, false}, {"on", Off, false}, {"", Off, false},
	} {
		got, err := ParseMode(tc.in)
		if got != tc.want || (err == nil) != tc.ok {
			t.Errorf("ParseMode(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "spec|speculative") {
			t.Errorf("ParseMode(%q) error does not name the accepted values: %v", tc.in, err)
		}
	}
	// Every mode's own String() parses back to itself.
	for _, m := range []Mode{Off, History, Speculative, Proactive} {
		if got, err := ParseMode(m.String()); err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
}

// streamRows drains a stream into flat row tuples without Collect.
func streamRows(t *testing.T, rows *Rows, ctx context.Context) [][]vector.Datum {
	t.Helper()
	var out [][]vector.Datum
	for b, err := range rows.All(ctx) {
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < b.Len(); i++ {
			// Row returns a view; copy since the batch recycles.
			row := b.Row(i)
			cp := make([]vector.Datum, len(row))
			copy(cp, row)
			out = append(out, cp)
		}
	}
	return out
}

func TestStreamingMatchesCollect(t *testing.T) {
	const q = `SELECT region, sum(amount * qty) AS revenue, count(*) AS n
	           FROM sales WHERE amount > 20.0 GROUP BY region ORDER BY region`
	for _, mode := range []Mode{Off, History, Speculative} {
		e := New(Config{Mode: mode})
		loadSales(e, 8000)
		ctx := context.Background()
		// Several rounds so recycling engages (stores, then replays):
		// streamed and collected consumption must agree byte-for-byte in
		// every phase.
		for round := 0; round < 3; round++ {
			rows, err := e.Query(ctx, q)
			if err != nil {
				t.Fatalf("mode %v: %v", mode, err)
			}
			streamed := streamRows(t, rows, ctx)
			res, err := e.QueryCollect(ctx, q)
			if err != nil {
				t.Fatalf("mode %v: %v", mode, err)
			}
			var collected [][]vector.Datum
			for _, b := range res.Batches {
				for i := 0; i < b.Len(); i++ {
					row := b.Row(i)
					cp := make([]vector.Datum, len(row))
					copy(cp, row)
					collected = append(collected, cp)
				}
			}
			if len(streamed) != len(collected) {
				t.Fatalf("mode %v round %d: %d streamed vs %d collected rows",
					mode, round, len(streamed), len(collected))
			}
			for i := range streamed {
				for c := range streamed[i] {
					if !streamed[i][c].Equal(collected[i][c]) {
						t.Fatalf("mode %v round %d row %d col %d: %v vs %v",
							mode, round, i, c, streamed[i][c], collected[i][c])
					}
				}
			}
		}
	}
}

func TestRowsAllEarlyBreakCloses(t *testing.T) {
	e := New(Config{Mode: Off})
	loadSales(e, 100_000)
	ctx := context.Background()
	rows, err := e.Query(ctx, `SELECT region, amount FROM sales`)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for b, err := range rows.All(ctx) {
		if err != nil {
			t.Fatal(err)
		}
		_ = b
		if n++; n == 2 {
			break // All must Close the query on early exit
		}
	}
	if b, err := rows.Next(ctx); b != nil || err != nil {
		t.Fatalf("Next after abandoned stream: b=%v err=%v, want nil,nil", b, err)
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("Close must be idempotent: %v", err)
	}
}

func TestTypedErrors(t *testing.T) {
	e := New(Config{Mode: Off})
	loadSales(e, 100)
	ctx := context.Background()

	// Unknown table.
	if _, err := e.Query(ctx, `SELECT x FROM nosuch`); !errors.Is(err, ErrUnknownTable) {
		t.Fatalf("want ErrUnknownTable, got %v", err)
	}
	// Builder plans classify the same way.
	if _, err := e.ExecuteContext(ctx, Scan("nosuch")); !errors.Is(err, ErrUnknownTable) {
		t.Fatalf("want ErrUnknownTable from plan path, got %v", err)
	}
	// Syntax error with position.
	_, err := e.Query(ctx, `SELECT region FROM sales WHERE`)
	if !errors.Is(err, ErrParse) {
		t.Fatalf("want ErrParse, got %v", err)
	}
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("want *ParseError in chain, got %v", err)
	}
	if pe.Pos <= 0 || pe.Pos > len(`SELECT region FROM sales WHERE`) {
		t.Fatalf("implausible error position %d", pe.Pos)
	}
	// Binding arity and type errors.
	stmt, err := e.Prepare(`SELECT region FROM sales WHERE amount > ?`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Query(ctx); err == nil {
		t.Fatal("missing binding should error")
	}
	if _, err := stmt.Query(ctx, 1.0, 2.0); err == nil {
		t.Fatal("excess bindings should error")
	}
	if _, err := stmt.Query(ctx, struct{}{}); err == nil {
		t.Fatal("unsupported binding type should error")
	}
	// Unparameterized front door rejects placeholders cleanly.
	if _, err := e.QueryCollect(ctx, `SELECT region FROM sales WHERE amount > ?`); err == nil {
		t.Fatal("Query without bindings for a parameterized statement should error")
	}
}

func TestDeprecatedExecuteShim(t *testing.T) {
	e := New(Config{Mode: Speculative})
	loadSales(e, 5000)
	r1, err := e.ExecuteContext(context.Background(), revenueByRegion(10))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.ExecuteContext(context.Background(), revenueByRegion(10))
	if err != nil {
		t.Fatal(err)
	}
	if r2.Stats.Reused == 0 {
		t.Fatalf("shim must run the full recycling pipeline: %+v", r2.Stats)
	}
	sameResults(t, r1, r2)
}

func TestStreamStatsAvailableAfterDrain(t *testing.T) {
	e := New(Config{Mode: Speculative})
	loadSales(e, 5000)
	ctx := context.Background()
	rows, err := e.Stream(ctx, revenueByRegion(10))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for b, err := range rows.All(ctx) {
		if err != nil {
			t.Fatal(err)
		}
		total += b.Len()
	}
	s := rows.Stats()
	if s.Rows != total || s.Rows != 4 {
		t.Fatalf("stats rows = %d, streamed %d, want 4", s.Rows, total)
	}
	if s.Total <= 0 || s.Execution <= 0 {
		t.Fatalf("timings missing: %+v", s)
	}
	if s.Materialized == 0 {
		t.Fatalf("speculative first sight should materialize: %+v", s)
	}
}

func TestPlanCacheInvalidatedBySchemaChange(t *testing.T) {
	e := New(Config{Mode: Off})
	loadSales(e, 100)
	ctx := context.Background()
	const q = `SELECT * FROM sales LIMIT 1`
	r1, err := e.QueryCollect(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Schema) != 5 {
		t.Fatalf("seed sales schema width = %d, want 5", len(r1.Schema))
	}
	// Replace the table with a wider schema: the cached plan compiled
	// against the old snapshot must not be served.
	wider := catalog.NewTable("sales", catalog.Schema{
		{Name: "region", Typ: vector.String},
		{Name: "amount", Typ: vector.Float64},
		{Name: "bonus", Typ: vector.Float64},
	})
	ww := wider.BeginWrite()
	ap := ww.Appender()
	ap.String(0, "north")
	ap.Float64(1, 1)
	ap.Float64(2, 2)
	ap.FinishRow()
	ww.Commit()
	e.Catalog().AddTable(wider)
	r2, err := e.QueryCollect(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Schema) != 3 {
		t.Fatalf("stale plan served after AddTable: schema width %d, want 3", len(r2.Schema))
	}
}
