package recycledb

// Describe answers: Stmt.ResultSchema reads a warm statement's schema off
// the optimized-shape entry its template key finds, without binding or
// resolving. These tests pin that the schema it answers is the schema the
// statement's rows carry, cold or warm, in every mode, and that no answer
// outlives the table it describes.

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"recycledb/internal/catalog"
	"recycledb/internal/skyserver"
	"recycledb/internal/sql"
	"recycledb/internal/tpch"
	"recycledb/internal/vector"
)

// describeCase is one prepared statement and one binding of it.
type describeCase struct {
	text string
	args []any
}

func date(y int, m time.Month, d int) time.Time { return time.Date(y, m, d, 0, 0, 0, 0, time.UTC) }

// describeCases are the wire_hot benchmark's statement shapes (TPC-H Q1,
// Q3, Q6, Q12 and Q14 with their parameters, a SkyServer cone and its
// aggregate), then two statements that swap the aliases the ORDER BY names,
// and int/float literal twins, written out and as bindings of one template.
var describeCases = []describeCase{
	{`SELECT l_returnflag, l_linestatus, sum(l_quantity) AS sum_qty, sum(l_extendedprice) AS sum_base_price,
	        sum(l_extendedprice * (1 - l_discount)) AS sum_disc_price, avg(l_quantity) AS avg_qty,
	        avg(l_discount) AS avg_disc, count(*) AS count_order
	 FROM lineitem WHERE l_shipdate <= $1 GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus`,
		[]any{date(1998, 9, 2)}},
	{`SELECT l_orderkey, o_orderdate, o_shippriority, sum(l_extendedprice * (1 - l_discount)) AS revenue
	 FROM lineitem, orders, customer
	 WHERE c_mktsegment = $1 AND o_orderdate < $2 AND l_shipdate > $3
	   AND l_orderkey = o_orderkey AND o_custkey = c_custkey
	 GROUP BY l_orderkey, o_orderdate, o_shippriority ORDER BY revenue DESC LIMIT 10`,
		[]any{"BUILDING", date(1995, 3, 15), date(1995, 3, 15)}},
	{`SELECT sum(l_extendedprice * l_discount) AS revenue FROM lineitem
	 WHERE l_shipdate >= $1 AND l_shipdate < $2 AND l_discount BETWEEN $3 AND $4 AND l_quantity < $5`,
		[]any{date(1994, 1, 1), date(1995, 1, 1), 0.05, 0.07, 24}},
	{`SELECT l_shipmode,
	        sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH') THEN 1 ELSE 0 END) AS high_line_count,
	        sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH') THEN 0 ELSE 1 END) AS low_line_count
	 FROM lineitem, orders
	 WHERE l_shipmode IN ('MAIL', 'SHIP') AND l_commitdate < l_receiptdate AND l_shipdate < l_commitdate
	   AND l_receiptdate >= $1 AND l_receiptdate < $2 AND l_orderkey = o_orderkey
	 GROUP BY l_shipmode ORDER BY l_shipmode`,
		[]any{date(1994, 1, 1), date(1995, 1, 1)}},
	{`SELECT sum(CASE WHEN p_type LIKE 'PROMO%' THEN l_extendedprice * (1 - l_discount) ELSE 0.0 END) AS promo,
	        sum(l_extendedprice * (1 - l_discount)) AS total
	 FROM lineitem, part WHERE l_shipdate >= $1 AND l_shipdate < $2 AND l_partkey = p_partkey`,
		[]any{date(1995, 9, 1), date(1995, 10, 1)}},
	{`SELECT objID, ra, dec, r_mag FROM fGetNearbyObjEq(195.0, 2.5, 0.5), PhotoPrimary WHERE nearby_objID = objID LIMIT 10`, nil},
	{`SELECT type, count(*) AS n, avg(r_mag) AS avg_r FROM fGetNearbyObjEq(195.0, 2.5, 0.5), PhotoPrimary WHERE nearby_objID = objID GROUP BY type`, nil},
	{`SELECT product AS a, qty AS b FROM sales WHERE qty > ? ORDER BY a, b LIMIT 3`, []any{5}},
	{`SELECT product AS b, qty AS a FROM sales WHERE qty > ? ORDER BY a, b LIMIT 3`, []any{5}},
	{`SELECT region, sum(qty * 2) AS s, count(*) AS c FROM sales GROUP BY region`, nil},
	{`SELECT region, sum(qty * 2.0) AS s, count(*) AS c FROM sales GROUP BY region ORDER BY region LIMIT 3`, nil},
	{`SELECT product, qty * ? AS x FROM sales ORDER BY product, x LIMIT 5`, []any{2}},
	{`SELECT product, qty * ? AS x FROM sales ORDER BY product, x LIMIT 5`, []any{2.0}},
	{`EXPLAIN SELECT product, qty * ? AS x FROM sales ORDER BY product, x LIMIT 5`, []any{3.0}},
}

// describeCatalog holds TPC-H, the SkyServer objects and the sales table.
func describeCatalog() *catalog.Catalog {
	cat := catalog.New()
	tpch.Generate(cat, 0.005, 1)
	skyserver.Load(cat, 2000, 1)
	loadSales(NewWithCatalog(Config{}, cat), 1000)
	return cat
}

// requireDescribeMatches runs s with args and requires its ResultSchema to
// name the columns and types of the executed result, which must also be
// the schema of its plan bound and resolved, and every result vector to
// carry its column's type. With warm, the schema must come from the
// optimized-shape cache, and without, from binding.
func requireDescribeMatches(t *testing.T, e *Engine, s *Stmt, warm bool, args ...any) catalog.Schema {
	t.Helper()
	label := fmt.Sprintf("%s%v", s.Text(), args)
	b, err := s.bind(args)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if _, cached := e.optShapes.get(b.key, e.cat.Version()); cached != warm {
		t.Fatalf("%s: shape cached = %v, want %v", label, cached, warm)
	}
	return requireSchemaMatches(t, e, s, b, args...)
}

// requireSchemaMatches is requireDescribeMatches for s bound as b, cached
// or not.
func requireSchemaMatches(t *testing.T, e *Engine, s *Stmt, b binding, args ...any) catalog.Schema {
	t.Helper()
	label := fmt.Sprintf("%s%v", s.Text(), args)
	got, err := s.ResultSchema(args...)
	if err != nil {
		t.Fatalf("%s: ResultSchema: %v", label, err)
	}
	res, err := s.Exec(context.Background(), args...)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !slices.Equal(got, res.Schema) {
		t.Fatalf("%s: described %v, executed %v", label, got, res.Schema)
	}
	for _, bt := range res.Batches {
		for i, v := range bt.Vecs {
			if v.Typ != res.Schema[i].Typ {
				t.Fatalf("%s: column %s is %v, its vector %v", label, res.Schema[i].Name, res.Schema[i].Typ, v.Typ)
			}
		}
	}
	if b.c.Kind == sql.StmtSelect { // an EXPLAIN's schema is its QUERY PLAN column
		p, err := b.plan()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Resolve(e.cat); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !slices.Equal(got, p.Schema()) {
			t.Fatalf("%s: described %v, bound and resolved %v", label, got, p.Schema())
		}
	}
	return got
}

// TestDescribeSchemaMatchesExecution describes and runs every
// describeCases statement in every mode, cold and then warm, and requires
// the described schema to be the executed one. Then a table a warm
// statement reads is replaced by one with the same name and row count and a
// retyped column: the next Describe must name the new type, as the rows do.
func TestDescribeSchemaMatchesExecution(t *testing.T) {
	cat := describeCatalog()
	for _, mode := range identityModes {
		t.Run(mode.String(), func(t *testing.T) {
			e := NewWithCatalog(Config{Mode: mode}, cat)
			for round := 0; round < 3; round++ {
				for _, c := range describeCases {
					s, err := e.Prepare(c.text)
					if err != nil {
						t.Fatalf("%s: %v", c.text, err)
					}
					requireDescribeMatches(t, e, s, round > 0, c.args...)
				}
			}
		})
	}
	for _, mode := range identityModes {
		t.Run("replaced/"+mode.String(), func(t *testing.T) {
			cat := catalog.New()
			cat.AddTable(kvTable(vector.Int64, 20))
			e := NewWithCatalog(Config{Mode: mode}, cat)
			s, err := e.Prepare(`SELECT k, v + ? AS w FROM kv WHERE k > ? ORDER BY k`)
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 3; round++ {
				if got := requireDescribeMatches(t, e, s, round > 0, 1, 3); got[1].Typ != vector.Int64 {
					t.Fatalf("w over a BIGINT v is %v", got[1].Typ)
				}
			}
			// Another session replaces kv (SQL CREATE TABLE refuses a taken
			// name; Catalog.AddTable replaces it), its row count unchanged.
			cat.AddTable(kvTable(vector.Float64, 20))
			for round := 0; round < 3; round++ {
				if got := requireDescribeMatches(t, e, s, round > 0, 1, 3); got[1].Typ != vector.Float64 {
					t.Fatalf("w over a replaced DOUBLE v is %v", got[1].Typ)
				}
			}
		})
	}
}

// kvTable is table kv of n rows (k, v) = (i, i) for i in 1..n, v of type typ.
func kvTable(typ vector.Type, n int) *catalog.Table {
	tb := catalog.NewTable("kv", catalog.Schema{{Name: "k", Typ: vector.Int64}, {Name: "v", Typ: typ}})
	w := tb.BeginWrite()
	ap := w.Appender()
	for i := 1; i <= n; i++ {
		ap.Int64(0, int64(i))
		if typ == vector.Int64 {
			ap.Int64(1, int64(i))
		} else {
			ap.Float64(1, float64(i))
		}
		ap.FinishRow()
	}
	w.Commit()
	return tb
}

// num reads an Int64 or Float64 datum as a float64.
func num(d vector.Datum) float64 {
	if d.Typ == vector.Float64 {
		return d.F64
	}
	return float64(d.I64)
}

// TestTemplateKeyAcrossSchemaChange: 8 clients describe and run warm
// prepared statements over kv while a writer replaces kv with v retyped
// (BIGINT <-> DOUBLE), creates unrelated tables and commits INSERTs and
// DELETEs that keep kv's keys 1..N. Each answer must be Mode Off's at its
// snapshot, which the contiguous keys make closed-form, and its types those
// of kv's schema: exactly the current one when no replacement overlapped the
// call.
func TestTemplateKeyAcrossSchemaChange(t *testing.T) {
	cat := catalog.New()
	const minRows, maxRows = 8, 40
	cat.AddTable(kvTable(vector.Int64, minRows))
	e := NewWithCatalog(Config{Mode: Speculative, Parallelism: 2}, cat)
	// phase is odd while a replacement is under way; kv's v is BIGINT in
	// even generations (phase/2) and DOUBLE in odd ones.
	var phase atomic.Int64
	vType := func(gen int64) vector.Type {
		if gen%2 == 0 {
			return vector.Int64
		}
		return vector.Float64
	}
	type query struct {
		text string
		args []any
		// schema is the expected schema when v has type vt; check
		// verifies the rows at any snapshot.
		schema func(vt vector.Type) catalog.Schema
		check  func(rows [][]vector.Datum) error
	}
	wType := func(vt vector.Type, arg any) vector.Type {
		if _, ok := arg.(float64); ok {
			return vector.Float64
		}
		return vt
	}
	countQuery := func(a int) query {
		return query{
			text: `SELECT count(*) AS n, sum(v) AS s, min(k) AS lo, max(k) AS hi FROM kv WHERE k > ?`,
			args: []any{a},
			schema: func(vt vector.Type) catalog.Schema {
				return catalog.Schema{{Name: "n", Typ: vector.Int64}, {Name: "s", Typ: vt},
					{Name: "lo", Typ: vector.Int64}, {Name: "hi", Typ: vector.Int64}}
			},
			check: func(rows [][]vector.Datum) error {
				if len(rows) != 1 {
					return fmt.Errorf("%d rows", len(rows))
				}
				r := rows[0]
				hi := r[3].I64
				if n := hi - int64(a); r[0].I64 != n || r[2].I64 != int64(a)+1 || num(r[1]) != float64((int64(a)+1+hi)*n/2) {
					return fmt.Errorf("row %v is no snapshot's of keys 1..%d", r, hi)
				}
				return nil
			},
		}
	}
	plusQuery := func(inc any) query {
		return query{
			text: `SELECT k, v + ? AS w FROM kv WHERE k <= ? ORDER BY k`,
			args: []any{inc, 4},
			schema: func(vt vector.Type) catalog.Schema {
				return catalog.Schema{{Name: "k", Typ: vector.Int64}, {Name: "w", Typ: wType(vt, inc)}}
			},
			check: func(rows [][]vector.Datum) error {
				if len(rows) != 4 {
					return fmt.Errorf("%d rows, want 4", len(rows))
				}
				for i, r := range rows {
					if r[0].I64 != int64(i+1) || num(r[1]) != float64(i+2) {
						return fmt.Errorf("row %d is %v", i, r)
					}
				}
				return nil
			},
		}
	}
	queries := []query{countQuery(0), countQuery(3), plusQuery(1), plusQuery(1.0)}
	stmts := make([]*Stmt, len(queries))
	for i, q := range queries {
		s, err := e.Prepare(q.text)
		if err != nil {
			t.Fatal(err)
		}
		stmts[i] = s
		for r := 0; r < 2; r++ {
			if _, err := s.Exec(context.Background(), q.args...); err != nil {
				t.Fatal(err)
			}
		}
	}
	// schemaOK reports whether got is q's schema at a generation the call
	// could have seen: exactly the stable one when phase did not move.
	schemaOK := func(q query, got catalog.Schema, p0, p1 int64) bool {
		if p0 == p1 && p0%2 == 0 {
			return slices.Equal(got, q.schema(vType(p0/2)))
		}
		return slices.Equal(got, q.schema(vector.Int64)) || slices.Equal(got, q.schema(vector.Float64))
	}

	duration := 2 * time.Second
	if testing.Short() {
		duration = 500 * time.Millisecond
	}
	deadline := time.Now().Add(duration)
	ctx := context.Background()
	var wg sync.WaitGroup
	var reads, writes atomic.Int64
	errs := make(chan error, 16)
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(5))
		n := minRows
		for i := 0; time.Now().Before(deadline); i++ {
			var err error
			gen := phase.Load() / 2
			switch r := rng.Intn(8); {
			case r == 0:
				phase.Add(1)
				cat.AddTable(kvTable(vType(gen+1), n))
				phase.Add(1)
			case r == 1:
				_, err = e.Exec(ctx, fmt.Sprintf(`CREATE TABLE side%d (x BIGINT)`, i))
			case r < 5 && n < maxRows:
				n++
				var v any = n
				if vType(gen) == vector.Float64 {
					v = float64(n)
				}
				_, err = e.Exec(ctx, `INSERT INTO kv VALUES (?, ?)`, n, v)
			case n > minRows:
				_, err = e.Exec(ctx, `DELETE FROM kv WHERE k = ?`, n)
				n--
			}
			if err != nil {
				errs <- fmt.Errorf("writer: %w", err)
				return
			}
			writes.Add(1)
			time.Sleep(200 * time.Microsecond)
		}
	}()
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)*7919 + 1))
			for time.Now().Before(deadline) {
				i := rng.Intn(len(queries))
				q, s := queries[i], stmts[i]
				p0 := phase.Load()
				if rng.Intn(2) == 0 {
					got, err := s.ResultSchema(q.args...)
					p1 := phase.Load()
					if err != nil || !schemaOK(q, got, p0, p1) {
						errs <- fmt.Errorf("client %d: %s%v described %v (%v) at phases %d..%d", c, q.text, q.args, got, err, p0, p1)
						return
					}
					reads.Add(1)
					continue
				}
				res, err := s.Exec(ctx, q.args...)
				p1 := phase.Load()
				if err != nil || !schemaOK(q, res.Schema, p0, p1) {
					errs <- fmt.Errorf("client %d: %s%v returned %v (%v) at phases %d..%d", c, q.text, q.args, res, err, p0, p1)
					return
				}
				var rows [][]vector.Datum
				for _, b := range res.Batches {
					for j := 0; j < b.Len(); j++ {
						row := b.Row(j)
						for k, d := range row {
							if d.Typ != res.Schema[k].Typ {
								errs <- fmt.Errorf("client %d: %s%v: column %v carries %v (stats %+v, phases %d..%d)", c, q.text, q.args, res.Schema[k], d.Typ, res.Stats, p0, p1)
								return
							}
						}
						rows = append(rows, row)
					}
				}
				if err := q.check(rows); err != nil {
					errs <- fmt.Errorf("client %d: %s%v: %w", c, q.text, q.args, err)
					return
				}
				reads.Add(1)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	// At rest, warm answers equal a ModeOff engine's over the final state.
	off := NewWithCatalog(Config{Mode: Off, Parallelism: 1}, cat)
	for i, q := range queries {
		want, err := off.QueryCollect(ctx, q.text, q.args...)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 2; r++ {
			b, err := stmts[i].bind(q.args)
			if err != nil {
				t.Fatal(err)
			}
			got := requireSchemaMatches(t, e, stmts[i], b, q.args...)
			if !slices.Equal(got, want.Schema) {
				t.Fatalf("%s%v: %v after the stress, ModeOff %v", q.text, q.args, got, want.Schema)
			}
		}
	}
	t.Logf("stress: %d reads, %d writes", reads.Load(), writes.Load())
}
