package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"testing"
	"time"

	"recycledb"
	"recycledb/internal/catalog"
	"recycledb/internal/pgclient"
	"recycledb/internal/vector"
)

// loadBig populates a "big" table with rows synthetic rows.
func loadBig(e *recycledb.Engine, rows int) {
	t := catalog.NewTable("big", catalog.Schema{
		{Name: "region", Typ: vector.String},
		{Name: "product", Typ: vector.Int64},
		{Name: "amount", Typ: vector.Float64},
		{Name: "qty", Typ: vector.Int64},
		{Name: "day", Typ: vector.Date},
	})
	rng := rand.New(rand.NewSource(7))
	regions := []string{"north", "south", "east", "west"}
	base := vector.MustParseDate("1996-01-01")
	w := t.BeginWrite()
	ap := w.Appender()
	for i := 0; i < rows; i++ {
		ap.String(0, regions[rng.Intn(len(regions))])
		ap.Int64(1, int64(rng.Intn(20)))
		ap.Float64(2, float64(rng.Intn(10000))/100)
		ap.Int64(3, int64(1+rng.Intn(50)))
		ap.Int64(4, base+int64(rng.Intn(1095)))
		ap.FinishRow()
	}
	w.Commit()
	e.Catalog().AddTable(t)
}

// loadProbe populates "probe", a join partner for big with query-unique
// column names (the dialect resolves unqualified columns across the whole
// query). Joining big with probe on product = product2 multiplies out to
// rows*probeRows/20 intermediate rows — the reliably-slow statement the
// timeout, cancel, and admission tests need.
func loadProbe(e *recycledb.Engine, rows int) {
	t := catalog.NewTable("probe", catalog.Schema{
		{Name: "product2", Typ: vector.Int64},
		{Name: "weight", Typ: vector.Float64},
	})
	rng := rand.New(rand.NewSource(11))
	w := t.BeginWrite()
	ap := w.Appender()
	for i := 0; i < rows; i++ {
		ap.Int64(0, int64(rng.Intn(20)))
		ap.Float64(1, float64(rng.Intn(1000))/10)
		ap.FinishRow()
	}
	w.Commit()
	e.Catalog().AddTable(t)
}

// slowJoin is the statement the interruption tests run: far too slow to
// finish before a 30ms timeout or a 100ms cancel on any hardware.
const slowJoin = `SELECT count(*) AS n FROM big, probe WHERE product = product2`

// startServer spins up a server on a loopback listener and returns its
// address plus an idempotent stop that drains it.
func startServer(t *testing.T, eng *recycledb.Engine, cfg Config) (string, *Server, func()) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = 3 * time.Second
	}
	srv := New(eng, cfg)
	ctx, cancel := context.WithCancel(t.Context())
	done := make(chan struct{})
	go func() {
		_ = srv.Serve(ctx, lis)
		close(done)
	}()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			cancel()
			<-done
		})
	}
	t.Cleanup(stop)
	return lis.Addr().String(), srv, stop
}

func dial(t *testing.T, addr string) *pgclient.Conn {
	t.Helper()
	c, err := pgclient.Dial(t.Context(), addr, "tester")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestSimpleExtendedEquivalence runs the same query through the simple and
// extended protocols and requires identical results, including schema.
func TestSimpleExtendedEquivalence(t *testing.T) {
	eng := recycledb.New(recycledb.Config{})
	loadBig(eng, 20000)
	addr, _, _ := startServer(t, eng, Config{})
	c := dial(t, addr)

	simple, err := c.Query(`SELECT region, sum(amount) AS total, count(*) AS n FROM big WHERE qty > 25 GROUP BY region ORDER BY region`)
	if err != nil {
		t.Fatal(err)
	}
	if len(simple) != 1 || len(simple[0].Rows) != 4 {
		t.Fatalf("simple: got %+v", simple)
	}
	if simple[0].Tag != "SELECT 4" {
		t.Fatalf("simple tag: %q", simple[0].Tag)
	}

	if err := c.Prepare("q1", `SELECT region, sum(amount) AS total, count(*) AS n FROM big WHERE qty > $1 GROUP BY region ORDER BY region`); err != nil {
		t.Fatal(err)
	}
	ext, err := c.Exec("q1", "25")
	if err != nil {
		t.Fatal(err)
	}
	if len(ext.Rows) != len(simple[0].Rows) {
		t.Fatalf("row count: simple %d, extended %d", len(simple[0].Rows), len(ext.Rows))
	}
	if len(ext.Columns) != 3 || ext.Columns[0] != "region" || ext.Columns[1] != "total" || ext.Columns[2] != "n" {
		t.Fatalf("extended columns: %v", ext.Columns)
	}
	for i := range ext.Rows {
		for j := range ext.Rows[i] {
			if ext.Rows[i][j] != simple[0].Rows[i][j] {
				t.Fatalf("row %d col %d: simple %q, extended %q",
					i, j, simple[0].Rows[i][j], ext.Rows[i][j])
			}
		}
	}
}

// TestWireDMLAndMultiStatement covers DDL + DML tags and multi-statement
// simple queries.
func TestWireDMLAndMultiStatement(t *testing.T) {
	eng := recycledb.New(recycledb.Config{})
	addr, _, _ := startServer(t, eng, Config{})
	c := dial(t, addr)

	res, err := c.Query(`CREATE TABLE kv (k int, v string)`)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Tag != "CREATE TABLE" {
		t.Fatalf("tag: %q", res[0].Tag)
	}
	res, err = c.Query(`INSERT INTO kv (k, v) VALUES (1, 'a'), (2, 'b'); SELECT k, v FROM kv ORDER BY k; DELETE FROM kv WHERE k = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("want 3 results, got %d: %+v", len(res), res)
	}
	if res[0].Tag != "INSERT 0 2" || res[2].Tag != "DELETE 1" {
		t.Fatalf("tags: %q %q", res[0].Tag, res[2].Tag)
	}
	if len(res[1].Rows) != 2 || res[1].Rows[0][1] != "a" {
		t.Fatalf("select result: %+v", res[1])
	}

	// Extended-protocol DML with parameters.
	if err := c.Prepare("ins", `INSERT INTO kv (k, v) VALUES ($1, $2)`); err != nil {
		t.Fatal(err)
	}
	r, err := c.Exec("ins", "7", "seven")
	if err != nil {
		t.Fatal(err)
	}
	if r.Tag != "INSERT 0 1" {
		t.Fatalf("tag: %q", r.Tag)
	}
}

// TestErrorsAndRecovery checks SQLSTATE mapping and that a session keeps
// working after errors in both protocols.
func TestErrorsAndRecovery(t *testing.T) {
	eng := recycledb.New(recycledb.Config{})
	loadBig(eng, 100)
	addr, _, _ := startServer(t, eng, Config{})
	c := dial(t, addr)

	_, err := c.Query(`SELEC wrong`)
	var se *pgclient.ServerError
	if !errors.As(err, &se) || se.Code != "42601" {
		t.Fatalf("want 42601 syntax error, got %v", err)
	}
	_, err = c.Query(`SELECT x FROM nosuch`)
	if !errors.As(err, &se) || se.Code != "42P01" {
		t.Fatalf("want 42P01 undefined table, got %v", err)
	}
	// Extended: error arms ignore-till-sync; Sync resyncs and the session
	// keeps serving.
	if err := c.Prepare("bad", `SELECT * FROM nowhere`); !errors.As(err, &se) || se.Code != "42P01" {
		t.Fatalf("want 42P01 from Parse, got %v", err)
	}
	if _, err := c.Query(`SELECT nosuch FROM big`); !errors.As(err, &se) || se.Code != "42703" {
		t.Fatalf("want 42703 undefined column, got %v", err)
	}
	res, err := c.Query(`SELECT count(*) AS n FROM big`)
	if err != nil || res[0].Rows[0][0] != "100" {
		t.Fatalf("session broken after errors: %v %+v", err, res)
	}
}

// TestUtilityStatements covers SET/SHOW/BEGIN and the live recycling_mode
// knob.
func TestUtilityStatements(t *testing.T) {
	eng := recycledb.New(recycledb.Config{})
	addr, _, _ := startServer(t, eng, Config{})
	c := dial(t, addr)

	res, err := c.Query(`BEGIN; COMMIT; SET statement_timeout = 5000; SHOW statement_timeout`)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Tag != "BEGIN" || res[1].Tag != "COMMIT" || res[2].Tag != "SET" {
		t.Fatalf("tags: %+v", res)
	}
	if res[3].Rows[0][0] != "5000ms" {
		t.Fatalf("statement_timeout: %+v", res[3])
	}
	if _, err := c.Query(`SET recycling_mode = 'speculative'`); err != nil {
		t.Fatal(err)
	}
	if eng.Mode() != recycledb.Speculative {
		t.Fatalf("recycling_mode knob did not reach the engine: %v", eng.Mode())
	}
	res, err = c.Query(`SHOW recycling_mode`)
	if err != nil || res[0].Rows[0][0] != "speculative" {
		t.Fatalf("show recycling_mode: %v %+v", err, res)
	}
	// The short names README and the server's usage tell operators to type
	// are the same vocabulary, and a typo is an error that changes nothing.
	res, err = c.Query(`SET recycling_mode = 'off'; SET recycling_mode = 'spec'; SHOW recycling_mode`)
	if err != nil || res[2].Rows[0][0] != "speculative" {
		t.Fatalf("SET recycling_mode = 'spec': %v %+v", err, res)
	}
	if _, err := c.Query(`SET recycling_mode = 'spce'`); err == nil {
		t.Fatal("SET recycling_mode = 'spce' succeeded")
	}
	if eng.Mode() != recycledb.Speculative {
		t.Fatalf("a mistyped mode changed the engine to %v", eng.Mode())
	}

	// Utility statements go through the SQL lexer: comments, '' escapes
	// and a trailing ';' work as in queries, over both protocols.
	for _, tc := range []struct{ set, show, want string }{
		{"/* c */ SET statement_timeout = 4000", "-- c\nSHOW statement_timeout", "4000ms"},
		{"SET statement_timeout = 5000 -- tail", "SHOW statement_timeout -- tail", "5000ms"},
		{"SET SESSION statement_timeout TO '6s';", "show STATEMENT_TIMEOUT;", "6000ms"},
		{"SET application_name = 'it''s'", "SHOW application_name", "it's"},
	} {
		if _, err := c.Query(tc.set); err != nil {
			t.Fatalf("%q: %v", tc.set, err)
		}
		res, err := c.Query(tc.show)
		if err != nil || len(res) != 1 || res[0].Tag != "SHOW" || res[0].Rows[0][0] != tc.want {
			t.Fatalf("%q: %v %+v, want %s", tc.show, err, res, tc.want)
		}
		if err := c.Prepare("", tc.set); err != nil {
			t.Fatalf("Parse %q: %v", tc.set, err)
		}
		if r, err := c.Exec(""); err != nil || r.Tag != "SET" {
			t.Fatalf("extended %q: %v %+v", tc.set, err, r)
		}
		if err := c.Prepare("", tc.show); err != nil {
			t.Fatalf("Parse %q: %v", tc.show, err)
		}
		if r, err := c.Exec(""); err != nil || r.Tag != "SHOW" || r.Rows[0][0] != tc.want {
			t.Fatalf("extended %q: %v %+v, want %s", tc.show, err, r, tc.want)
		}
	}
	res, err = c.Query(`RESET statement_timeout; SHOW statement_timeout`)
	if err != nil || res[0].Tag != "RESET" || res[1].Rows[0][0] != "0ms" {
		t.Fatalf("RESET: %v %+v", err, res)
	}

	// An unknown parameter is 42704, a bad value 22023, a malformed
	// utility statement 42601; none changes a setting.
	var se *pgclient.ServerError
	for _, tc := range []struct{ q, code string }{
		{"SHOW no_such_parameter", "42704"},
		{"SET statement_timeout = 'soon'", "22023"},
		{"SET recycling_mode = 'spce'", "22023"},
		{"SET statement_timeout 5", "42601"},
		{"DISCARD PLANS", "42601"},
	} {
		if _, err := c.Query(tc.q); !errors.As(err, &se) || se.Code != tc.code {
			t.Fatalf("%q: got %v, want SQLSTATE %s", tc.q, err, tc.code)
		}
	}
	res, err = c.Query(`SHOW statement_timeout`)
	if err != nil || res[0].Rows[0][0] != "0ms" {
		t.Fatalf("a failed SET changed statement_timeout: %v %+v", err, res)
	}
}

// TestWireExplain runs EXPLAIN as a query over both protocols: a QUERY
// PLAN text column, one row per plan line, and over the extended protocol
// a $1 bound like the SELECT's.
func TestWireExplain(t *testing.T) {
	eng := recycledb.New(recycledb.Config{Mode: recycledb.Speculative})
	loadBig(eng, 1000)
	addr, _, _ := startServer(t, eng, Config{})
	c := dial(t, addr)

	const q = `SELECT region, count(*) AS n FROM big WHERE qty > 25 GROUP BY region`
	plan, err := eng.QueryCollect(context.Background(), "EXPLAIN "+q)
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for _, line := range plan.Batches[0].Vecs[0].Str {
		want += line + "\n"
	}
	res, err := c.Query("EXPLAIN " + q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Columns) != 1 || res[0].Columns[0] != "QUERY PLAN" || res[0].Tag != "EXPLAIN" {
		t.Fatalf("simple EXPLAIN: %+v", res)
	}
	if got := joinLines(res[0].Rows); got != want {
		t.Fatalf("simple EXPLAIN:\n%s\nwant:\n%s", got, want)
	}

	if err := c.Prepare("ex", "EXPLAIN SELECT region, count(*) AS n FROM big WHERE qty > $1 GROUP BY region"); err != nil {
		t.Fatal(err)
	}
	ext, err := c.Exec("ex", "25")
	if err != nil {
		t.Fatal(err)
	}
	if len(ext.Columns) != 1 || ext.Columns[0] != "QUERY PLAN" || ext.Tag != "EXPLAIN" {
		t.Fatalf("extended EXPLAIN: %+v", ext)
	}
	if got := joinLines(ext.Rows); got != want {
		t.Fatalf("extended EXPLAIN with $1 = 25:\n%s\nwant:\n%s", got, want)
	}
	if n := eng.ActiveStatements(); n != 0 {
		t.Fatalf("%d statement slots held after EXPLAIN", n)
	}
}

func joinLines(rows [][]string) string {
	var out string
	for _, r := range rows {
		out += r[0] + "\n"
	}
	return out
}

// TestStatementTimeout sets a tiny timeout over a long-running join and
// expects SQLSTATE 57014, with the session alive afterwards.
func TestStatementTimeout(t *testing.T) {
	eng := recycledb.New(recycledb.Config{})
	loadBig(eng, 20000)
	loadProbe(eng, 20000)
	addr, _, _ := startServer(t, eng, Config{})
	c := dial(t, addr)

	if _, err := c.Query(`SET statement_timeout = 30`); err != nil {
		t.Fatal(err)
	}
	// ~20M intermediate join rows: far beyond 30ms on any hardware.
	_, err := c.Query(slowJoin)
	var se *pgclient.ServerError
	if !errors.As(err, &se) || se.Code != "57014" {
		t.Fatalf("want 57014 query_canceled, got %v", err)
	}
	if _, err := c.Query(`SET statement_timeout = 0`); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(`SELECT count(*) AS n FROM big`)
	if err != nil || res[0].Rows[0][0] != "20000" {
		t.Fatalf("session broken after timeout: %v %+v", err, res)
	}
}

// TestCancelRequest cancels a long statement through the out-of-band wire
// protocol and expects 57014 on the victim connection.
func TestCancelRequest(t *testing.T) {
	eng := recycledb.New(recycledb.Config{})
	loadBig(eng, 20000)
	loadProbe(eng, 20000)
	addr, _, _ := startServer(t, eng, Config{})
	c := dial(t, addr)

	errc := make(chan error, 1)
	go func() {
		_, err := c.Query(slowJoin)
		errc <- err
	}()
	time.Sleep(100 * time.Millisecond)
	if err := c.Cancel(t.Context()); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		var se *pgclient.ServerError
		if !errors.As(err, &se) || se.Code != "57014" {
			t.Fatalf("want 57014 after CancelRequest, got %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("cancel did not interrupt the statement")
	}
}

// TestPortalSuspension fetches a result in row-limited Execute chunks and
// verifies no row is lost or duplicated across suspensions — including
// limits that split a batch mid-way.
func TestPortalSuspension(t *testing.T) {
	eng := recycledb.New(recycledb.Config{})
	loadBig(eng, 5000)
	addr, _, _ := startServer(t, eng, Config{})
	c := dial(t, addr)

	if err := c.Prepare("scan", `SELECT product, qty FROM big WHERE qty > $1`); err != nil {
		t.Fatal(err)
	}
	full, err := c.Exec("scan", "10")
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Rows) == 0 {
		t.Fatal("empty full result")
	}
	if err := c.Bind("p1", "scan", "10"); err != nil {
		t.Fatal(err)
	}
	var chunked [][]string
	for i := 0; ; i++ {
		res, suspended, err := c.ExecutePortal("p1", 700) // not a batch multiple
		if err != nil {
			t.Fatal(err)
		}
		chunked = append(chunked, res.Rows...)
		if !suspended {
			break
		}
		if i > len(full.Rows) {
			t.Fatal("portal never completed")
		}
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	if len(chunked) != len(full.Rows) {
		t.Fatalf("chunked fetch lost rows: %d vs %d", len(chunked), len(full.Rows))
	}
	for i := range chunked {
		if chunked[i][0] != full.Rows[i][0] || chunked[i][1] != full.Rows[i][1] {
			t.Fatalf("row %d differs: %v vs %v", i, chunked[i], full.Rows[i])
		}
	}
}

// TestAdmissionFairness caps execution at 1, parks a heavy statement on
// the slot, and verifies that queued statements (a) wait rather than run
// concurrently, (b) complete once the slot frees, and (c) hold no engine
// worker budget while queued.
func TestAdmissionFairness(t *testing.T) {
	eng := recycledb.New(recycledb.Config{})
	loadBig(eng, 20000)
	loadProbe(eng, 200000) // ~200M intermediate join rows: outlives the 1.5s timeout
	addr, srv, _ := startServer(t, eng, Config{MaxConcurrent: 1})

	hog := dial(t, addr)
	if _, err := hog.Query(`SET statement_timeout = 1500`); err != nil {
		t.Fatal(err)
	}
	hogDone := make(chan error, 1)
	go func() {
		_, err := hog.Query(slowJoin) // holds the slot until the 1.5s timeout
		hogDone <- err
	}()
	time.Sleep(150 * time.Millisecond)

	// While the slot is held, queued statements must not execute (the
	// engine sees exactly one active statement) yet must not be rejected.
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(t.Context(), 60*time.Second)
			defer cancel()
			c, err := pgclient.Dial(ctx, addr, "waiter")
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			res, err := c.Query(`SELECT region, sum(amount) AS total FROM big GROUP BY region`)
			if err != nil {
				errs <- err
				return
			}
			if len(res[0].Rows) != 4 {
				errs <- fmt.Errorf("bad result: %+v", res)
			}
		}()
	}
	time.Sleep(300 * time.Millisecond)
	if n := eng.ActiveStatements(); n > 1 {
		t.Errorf("admission leak: %d statements executing with a 1-slot gate", n)
	}
	if st := srv.Stats(); st.StmtsQueued == 0 {
		t.Error("no statements queued while the slot was held")
	}

	var se *pgclient.ServerError
	if err := <-hogDone; !errors.As(err, &se) || se.Code != "57014" {
		t.Fatalf("hog statement: want 57014 timeout, got %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.AdmissionWaits == 0 {
		t.Fatal("statements through a held 1-slot gate never counted a wait")
	}
	if st.StmtsExecuting != 0 || st.StmtsQueued != 0 {
		t.Fatalf("admission counters leaked: %+v", st)
	}
}

// TestStalePreparedCrossSession prepares on one connection, runs DDL on
// another, and executes the prepared statement on the first — the
// transparent-recompile path, over the wire.
func TestStalePreparedCrossSession(t *testing.T) {
	eng := recycledb.New(recycledb.Config{})
	loadBig(eng, 1000)
	addr, _, _ := startServer(t, eng, Config{})
	a := dial(t, addr)
	b := dial(t, addr)

	if err := a.Prepare("q", `SELECT count(*) AS n FROM big WHERE qty > $1`); err != nil {
		t.Fatal(err)
	}
	before, err := a.Exec("q", "25")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Query(`CREATE TABLE newcomer (id int)`); err != nil {
		t.Fatal(err)
	}
	after, err := a.Exec("q", "25")
	if err != nil {
		t.Fatalf("prepared statement died after another session's DDL: %v", err)
	}
	if before.Rows[0][0] != after.Rows[0][0] {
		t.Fatalf("recompile changed the answer: %v vs %v", before.Rows, after.Rows)
	}
}

// TestMidStreamDisconnect kills connections that are mid-result and
// verifies every statement slot drains back and the server keeps serving.
// This is the wire-level companion of TestRowsConcurrentCloseRace.
func TestMidStreamDisconnect(t *testing.T) {
	eng := recycledb.New(recycledb.Config{})
	loadBig(eng, 100000)
	addr, _, _ := startServer(t, eng, Config{WriteTimeout: 2 * time.Second})

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				ctx, cancel := context.WithTimeout(t.Context(), 30*time.Second)
				c, err := pgclient.Dial(ctx, addr, "killer")
				if err != nil {
					cancel()
					t.Error(err)
					return
				}
				done := make(chan struct{})
				go func() {
					_, _ = c.Query(`SELECT region, product, amount, qty FROM big WHERE qty > 1`)
					close(done)
				}()
				time.Sleep(time.Duration((i+j)%5) * time.Millisecond)
				_ = c.KillRaw()
				<-done
				cancel()
			}
		}(i)
	}
	wg.Wait()

	// Slots drain asynchronously as connection goroutines unwind.
	deadline := time.Now().Add(5 * time.Second)
	for eng.ActiveStatements() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d statement slots still held after disconnect storm", eng.ActiveStatements())
		}
		time.Sleep(10 * time.Millisecond)
	}
	c := dial(t, addr)
	res, err := c.Query(`SELECT count(*) AS n FROM big`)
	if err != nil || res[0].Rows[0][0] != "100000" {
		t.Fatalf("server broken after disconnect storm: %v %+v", err, res)
	}
}

// TestGracefulDrain cancels Serve while a statement runs: the in-flight
// statement completes and delivers its result; afterwards the listener is
// closed and existing idle sessions are gone.
func TestGracefulDrain(t *testing.T) {
	eng := recycledb.New(recycledb.Config{})
	loadBig(eng, 200000)
	addr, _, stop := startServer(t, eng, Config{DrainTimeout: 10 * time.Second})
	busy := dial(t, addr)
	idle := dial(t, addr)

	type outcome struct {
		res []pgclient.Result
		err error
	}
	out := make(chan outcome, 1)
	go func() {
		res, err := busy.Query(`SELECT region, sum(amount) AS total, count(*) AS n FROM big GROUP BY region`)
		out <- outcome{res, err}
	}()
	time.Sleep(20 * time.Millisecond)
	stop() // cancel Serve's ctx; returns after drain

	o := <-out
	if o.err != nil {
		t.Fatalf("in-flight statement did not survive drain: %v", o.err)
	}
	if len(o.res) != 1 || len(o.res[0].Rows) != 4 {
		t.Fatalf("drained statement returned %+v", o.res)
	}
	if _, err := idle.Query(`SELECT 1`); err == nil {
		t.Fatal("idle connection survived drain")
	}
	ctx, cancel := context.WithTimeout(t.Context(), time.Second)
	defer cancel()
	if _, err := pgclient.Dial(ctx, addr, "late"); err == nil {
		t.Fatal("listener still accepting after drain")
	}
}

// TestConnectionCap rejects over-cap connections with FATAL 53300.
func TestConnectionCap(t *testing.T) {
	eng := recycledb.New(recycledb.Config{})
	addr, _, _ := startServer(t, eng, Config{MaxConns: 1})
	_ = dial(t, addr)
	time.Sleep(20 * time.Millisecond) // let the first session register
	ctx, cancel := context.WithTimeout(t.Context(), 5*time.Second)
	defer cancel()
	_, err := pgclient.Dial(ctx, addr, "overflow")
	var se *pgclient.ServerError
	if !errors.As(err, &se) || se.Code != "53300" {
		t.Fatalf("want 53300 too_many_connections, got %v", err)
	}
}

// TestManyConnectionsSmoke is the in-tree slice of the pgbench-style load:
// 64 concurrent connections, a few queries each, zero errors.
func TestManyConnectionsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("load smoke skipped in -short")
	}
	eng := recycledb.New(recycledb.Config{})
	loadBig(eng, 20000)
	addr, srv, _ := startServer(t, eng, Config{})

	const conns = 64
	var wg sync.WaitGroup
	var failures sync.Map
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(t.Context(), 120*time.Second)
			defer cancel()
			c, err := pgclient.Dial(ctx, addr, "smoke"+strconv.Itoa(i))
			if err != nil {
				failures.Store(i, err)
				return
			}
			defer c.Close()
			if err := c.Prepare("q", `SELECT region, sum(amount) AS total FROM big WHERE qty > $1 GROUP BY region`); err != nil {
				failures.Store(i, err)
				return
			}
			for j := 0; j < 5; j++ {
				if _, err := c.Exec("q", pgclient.Itoa(int64(j%40))); err != nil {
					failures.Store(i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	failures.Range(func(k, v any) bool {
		t.Errorf("conn %v: %v", k, v)
		return true
	})
	if st := srv.Stats(); st.ConnsAccepted < conns {
		t.Fatalf("accepted %d connections, want %d", st.ConnsAccepted, conns)
	}
}

// TestWireComments sends commented SQL over both protocols: a -- comment
// holding a ';' does not split a simple query, and a commented statement
// parses, describes and executes over the extended protocol.
func TestWireComments(t *testing.T) {
	eng := recycledb.New(recycledb.Config{})
	loadBig(eng, 1000)
	addr, _, _ := startServer(t, eng, Config{})
	c := dial(t, addr)

	res, err := c.Query("SELECT count(*) AS n FROM big -- tail; not a split\n; SELECT count(*) AS m FROM big WHERE qty > 25")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Tag != "SELECT 1" || res[1].Tag != "SELECT 1" || res[0].Rows[0][0] != "1000" {
		t.Fatalf("want two one-row results, got %+v", res)
	}

	if err := c.Prepare("q", "SELECT count(*) AS n /* c; d */ FROM big -- $2\nWHERE qty > $1"); err != nil {
		t.Fatal(err)
	}
	r, err := c.Exec("q", "25")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Columns) != 1 || r.Columns[0] != "n" || r.Rows[0][0] != res[1].Rows[0][0] {
		t.Fatalf("extended: columns %v rows %v, want n = %s", r.Columns, r.Rows, res[1].Rows[0][0])
	}

	// A text with no token is an empty statement over both protocols.
	const blank = "-- only a comment\n/* and another */"
	res, err = c.Query(blank)
	if err != nil || len(res) != 1 || res[0].Tag != "" {
		t.Fatalf("simple: %v %+v, want one EmptyQueryResponse", err, res)
	}
	if err := c.Prepare("blank", blank); err != nil {
		t.Fatal(err)
	}
	if err := c.Bind("", "blank"); err != nil {
		t.Fatal(err)
	}
	r, suspended, err := c.ExecutePortal("", 0)
	if err != nil || suspended || r.Tag != "" || r.Rows != nil {
		t.Fatalf("extended: %v %+v, want EmptyQueryResponse", err, r)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
}
