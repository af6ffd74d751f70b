package recycledb

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"recycledb/internal/catalog"
	"recycledb/internal/vector"
)

// TestStmtRecompilesAfterSchemaChange is the cross-session stale-statement
// regression: a Stmt prepared before another session's CREATE TABLE must not
// execute a compiled plan pinned to the old schema version — it revalidates
// against Catalog.Version and recompiles transparently.
func TestStmtRecompilesAfterSchemaChange(t *testing.T) {
	e := New(Config{})
	loadSales(e, 2000)
	stmt, err := e.Prepare(`SELECT region, sum(amount) AS total FROM sales WHERE qty > ? GROUP BY region`)
	if err != nil {
		t.Fatal(err)
	}
	before, err := stmt.Exec(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}

	// "Another session": a concurrent DDL bumps the schema version.
	if _, err := e.Exec(context.Background(), `CREATE TABLE audit (id int, note string)`); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.plans.get(stmt.Text(), e.cat.Version()); ok {
		t.Fatal("plan cache served a compiled statement across a schema change")
	}
	if stmt.cur.Load().ver == e.cat.Version() {
		t.Fatal("test setup: DDL did not move the schema version")
	}

	after, err := stmt.Exec(context.Background(), 10)
	if err != nil {
		t.Fatalf("prepared statement failed after unrelated DDL: %v", err)
	}
	if before.Rows() != after.Rows() {
		t.Fatalf("stale recompile changed the result: %d rows before, %d after", before.Rows(), after.Rows())
	}
	if got := e.cat.Version(); stmt.cur.Load().ver != got {
		t.Fatalf("stmt did not re-pin to current schema version: has %d, catalog %d", stmt.cur.Load().ver, got)
	}
}

// TestStmtStaleError covers the unrecoverable half: the schema moved in a
// way that invalidates the statement itself — recompilation against the new
// schema fails — so execution reports typed ErrStaleStmt with the compile
// error in the chain. A recompiled statement that compiles but no longer
// resolves (a SELECT over a since-dropped column) instead fails with the
// same error the identical ad-hoc query gets: after a successful recompile
// the handle is not stale, the query text is.
func TestStmtStaleError(t *testing.T) {
	e := New(Config{})
	loadSales(e, 100)
	if _, err := e.Exec(context.Background(), `CREATE TABLE audit (id int, note string)`); err != nil {
		t.Fatal(err)
	}
	ins, err := e.Prepare(`INSERT INTO audit (id, note) VALUES (?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ins.Exec(context.Background(), 1, "ok"); err != nil {
		t.Fatal(err)
	}
	sel, err := e.Prepare(`SELECT region, amount FROM sales WHERE qty > ?`)
	if err != nil {
		t.Fatal(err)
	}

	// Replace both tables with incompatible schemas: audit loses "note"
	// (INSERT no longer compiles), sales loses everything the SELECT uses.
	e.Catalog().AddTable(catalog.NewTable("audit", catalog.Schema{
		{Name: "id", Typ: vector.Int64},
	}))
	e.Catalog().AddTable(catalog.NewTable("sales", catalog.Schema{
		{Name: "id", Typ: vector.Int64},
	}))

	_, err = ins.Exec(context.Background(), 2, "stale")
	if !errors.Is(err, ErrStaleStmt) {
		t.Fatalf("want ErrStaleStmt after incompatible schema change, got %v", err)
	}
	// The SELECT recompiles (column existence binds at resolve time) but
	// must fail rather than read stale columns.
	if _, err := sel.Exec(context.Background(), 5); err == nil {
		t.Fatal("SELECT over dropped columns succeeded after schema change")
	}
}

// TestStmtRevalidationConcurrent hammers revalidation from many goroutines
// racing a stream of DDL version bumps; with -race this checks the atomic
// compiled-form swap.
func TestStmtRevalidationConcurrent(t *testing.T) {
	e := New(Config{})
	loadSales(e, 500)
	stmt, err := e.Prepare(`SELECT count(*) AS n FROM sales WHERE qty > ?`)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var ddl sync.WaitGroup
	ddl.Add(1)
	go func() {
		defer ddl.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Version bump via AddTable (replacing an unrelated table).
			e.Catalog().AddTable(catalog.NewTable("scratch", catalog.Schema{{Name: "x", Typ: vector.Int64}}))
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := stmt.Exec(context.Background(), 10); err != nil {
					t.Errorf("revalidated exec failed: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	ddl.Wait()
}

// TestRowsConcurrentCloseRace abandons streams from a second goroutine
// mid-Next — the serving tier's disconnect path. Under -race this verifies
// the lifecycle mutex: operator scratch and in-flight recycler
// registrations release exactly once even when Close lands between, or
// during, Next calls, and the engine's statement slots all drain back.
func TestRowsConcurrentCloseRace(t *testing.T) {
	for _, mode := range []Mode{Off, Speculative} {
		e := New(Config{Mode: mode})
		loadSales(e, 20000)
		var wg sync.WaitGroup
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < 30; i++ {
					ctx, cancel := context.WithCancel(context.Background())
					rows, err := e.Query(ctx, `SELECT region, amount FROM sales WHERE amount > ?`, 1.0)
					if err != nil {
						t.Errorf("query: %v", err)
						cancel()
						return
					}
					// The reaper: cancels and closes while the owner is
					// draining, at a jittered point mid-stream.
					var reap sync.WaitGroup
					reap.Add(1)
					go func(kill bool) {
						defer reap.Done()
						if kill {
							time.Sleep(time.Duration(i%7) * 10 * time.Microsecond)
							cancel()
						}
						rows.Close()
					}(i%3 != 0)
					for {
						b, err := rows.Next(ctx)
						if err != nil || b == nil {
							break
						}
					}
					reap.Wait()
					rows.Close() // idempotent double close
					cancel()
				}
			}(c)
		}
		wg.Wait()
		if got := e.active.Load(); got != 0 {
			t.Fatalf("mode %v: %d statement slots leaked after abandoned streams", mode, got)
		}
		// The engine must still answer queries after the abandon storm.
		if _, err := e.QueryCollect(context.Background(), `SELECT count(*) AS n FROM sales`); err != nil {
			t.Fatalf("mode %v: engine broken after abandon storm: %v", mode, err)
		}
	}
}

// TestToDatumsCoercions is the table-driven contract for wire-parameter
// conversion: exactness-preserving widenings, overflow rejection instead of
// wrapping, []byte-as-string, and the canonical-numeric rule that integers
// above 2^53 stay exact (never routed through float64).
func TestToDatumsCoercions(t *testing.T) {
	big := int64(1)<<53 + 1 // not representable in float64
	cases := []struct {
		name string
		in   any
		want vector.Datum
		err  bool
	}{
		{"int", int(7), vector.NewInt64Datum(7), false},
		{"int8", int8(-8), vector.NewInt64Datum(-8), false},
		{"int16", int16(-16), vector.NewInt64Datum(-16), false},
		{"int32", int32(1 << 30), vector.NewInt64Datum(1 << 30), false},
		{"int64_above_2_53", big, vector.NewInt64Datum(big), false},
		{"uint8", uint8(255), vector.NewInt64Datum(255), false},
		{"uint16", uint16(65535), vector.NewInt64Datum(65535), false},
		{"uint32", uint32(1 << 31), vector.NewInt64Datum(1 << 31), false},
		{"uint_ok", uint(12), vector.NewInt64Datum(12), false},
		{"uint64_ok", uint64(math.MaxInt64), vector.NewInt64Datum(math.MaxInt64), false},
		{"uint64_overflow", uint64(math.MaxInt64) + 1, vector.Datum{}, true},
		{"float32_exact", float32(0.1), vector.NewFloat64Datum(float64(float32(0.1))), false},
		{"float64", 2.5, vector.NewFloat64Datum(2.5), false},
		{"string", "abc", vector.NewStringDatum("abc"), false},
		{"bytes", []byte("wire"), vector.NewStringDatum("wire"), false},
		{"bool", true, vector.NewBoolDatum(true), false},
		{"time", time.Date(1996, 3, 15, 13, 5, 0, 0, time.UTC),
			vector.NewDateDatum(vector.MustParseDate("1996-03-15")), false},
		{"datum_passthrough", vector.NewDateDatum(10), vector.NewDateDatum(10), false},
		{"nil_rejected", nil, vector.Datum{}, true},
		{"unsupported", struct{}{}, vector.Datum{}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds, err := toDatums([]any{tc.in})
			if tc.err {
				if err == nil {
					t.Fatalf("want error, got %v", ds[0])
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !ds[0].Equal(tc.want) {
				t.Fatalf("got %v (%v), want %v (%v)", ds[0], ds[0].Typ, tc.want, tc.want.Typ)
			}
		})
	}
	// float32 must NOT arrive as the shorter decimal it prints as.
	ds, err := toDatums([]any{float32(0.1)})
	if err != nil {
		t.Fatal(err)
	}
	if ds[0].F64 == 0.1 {
		t.Fatal("float32 parameter was re-rounded through its decimal form")
	}
}
