package sql

import (
	"errors"
	"testing"

	"recycledb/internal/catalog"
	"recycledb/internal/vector"
)

// fuzzSeeds is the seed corpus: the shapes of the TPC-H and SkyServer
// workloads as SQL text (aggregation-heavy dashboards, joins with pushed
// predicates, top-Ns, parameterized templates, table functions) plus a few
// deliberately malformed texts so the fuzzer starts near error paths too.
var fuzzSeeds = []string{
	// TPC-H flavored.
	`SELECT l_returnflag, l_linestatus, sum(l_quantity) AS sum_qty,
	        sum(l_extendedprice) AS sum_base, avg(l_discount) AS avg_disc,
	        count(*) AS count_order
	 FROM lineitem WHERE l_shipdate <= '1998-09-02'
	 GROUP BY l_returnflag, l_linestatus`,
	`SELECT l_orderkey, sum(l_extendedprice * (1 - l_discount)) AS revenue
	 FROM customer, orders, lineitem
	 WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey
	   AND l_orderkey = o_orderkey AND o_orderdate < '1995-03-15'
	 GROUP BY l_orderkey ORDER BY revenue DESC LIMIT 10`,
	`SELECT sum(l_extendedprice * l_discount) AS revenue FROM lineitem
	 WHERE l_shipdate >= '1994-01-01' AND l_discount > 0.05
	   AND l_discount < 0.07 AND l_quantity < 24`,
	`SELECT o_orderpriority, count(*) AS order_count FROM orders
	 WHERE o_orderdate >= ? AND o_orderdate < ? GROUP BY o_orderpriority`,
	`SELECT n_name, count(*) AS suppliers FROM supplier, nation
	 WHERE s_nationkey = n_nationkey GROUP BY n_name ORDER BY suppliers DESC LIMIT 5`,
	// SkyServer flavored.
	`SELECT objID, ra, dec, r_mag FROM PhotoPrimary
	 WHERE ra > 194.5 AND ra < 195.5 AND dec > 2.0 AND dec < 3.0
	 ORDER BY r_mag LIMIT 10`,
	`SELECT type, count(*) AS n, avg(r_mag) AS mean_mag FROM PhotoPrimary
	 WHERE r_mag < 22.5 GROUP BY type`,
	// Expression and syntax corners.
	`SELECT CASE WHEN amount > 10 THEN 1 ELSE 0 END AS flag FROM sales`,
	`SELECT a + b * -c / 2 - (d % 3) AS x FROM t WHERE NOT (a = 1 OR b <> 2)`,
	`SELECT * FROM t WHERE s LIKE 'a%b_c' AND u IN (1, 2, 3)`,
	"SELECT 'it''s' AS q, \"quoted ident\" FROM t",
	`select distinct x from t where x between 1 and 2;`,
	// DML grammar.
	`INSERT INTO sales VALUES ('north', 1, 9.5, DATE '1997-03-01')`,
	`INSERT INTO t (a, b, c, d, s, u, x) VALUES (1, 2.5, 3, 4, 'hi', 5, 6), (?, ?, ?, ?, ?, ?, ?)`,
	`insert into sales values (?, ?, ?, ?);`,
	`DELETE FROM sales WHERE amount > 100 AND region = 'north'`,
	`DELETE FROM t WHERE a BETWEEN ? AND ? OR NOT s LIKE 'x%'`,
	`delete from sales`,
	`CREATE TABLE metrics (host TEXT, cpu DOUBLE, day DATE, up BOOLEAN, hits BIGINT)`,
	`create table v (name varchar(32), score float)`,
	// $N placeholders, comments, quoted identifiers, multi-statement text.
	`SELECT region FROM sales WHERE qty > $2 AND amount < $1 OR qty = $2`,
	`INSERT INTO sales VALUES ($1, $3, 1.5, $3, DATE '1997-01-01')`,
	`DELETE FROM t WHERE a = $1 AND b = ?`,
	`SELECT $0, $$tag$$, $ FROM t`,
	"SELECT a -- $1; not a split\nFROM t WHERE b = $1",
	`SELECT a /* c; /* nested; */ $2 */ FROM t /* open`,
	`SELECT "t;u", "a""b" FROM "sales"`,
	"SELECT 'a;b' FROM t; SELECT \"x;y\" FROM u;; -- c;\nDELETE FROM t; /* ; */",
	"SET x = a:b; SELECT 1 FROM t; SELECT 'open;",
	// EXPLAIN: with parameters, commented, and the forms it rejects.
	`EXPLAIN SELECT region FROM sales WHERE qty > $1 AND amount < $2`,
	"/* c */ explain select * from t where a = ? -- tail\n;",
	`EXPLAIN ANALYZE SELECT a FROM t`,
	`EXPLAIN INSERT INTO t VALUES (1, 2.5, 3, 4, 'hi', 5, 6)`,
	`EXPLAIN`,
	// Session statements, every form.
	`SET statement_timeout = 5000`,
	"/* c */ set session application_name to 'it''s' -- tail",
	`SET LOCAL a = -1;`,
	`SET x TO on`,
	"-- c\nSHOW statement_timeout",
	`RESET ALL`,
	`reset recycling_mode`,
	`BEGIN`,
	`BEGIN WORK`,
	`START TRANSACTION`,
	`COMMIT WORK`,
	`END`,
	`ROLLBACK TRANSACTION`,
	`DISCARD ALL`,
	`SET x =`,
	`DISCARD PLANS`,
	`start`,
	// Malformed DML.
	`INSERT INTO`,
	`INSERT INTO t VALUES`,
	`INSERT INTO t VALUES (1, `,
	`DELETE t WHERE`,
	`CREATE TABLE x ()`,
	`CREATE TABLE x (a froble)`,
	// Malformed.
	`SELECT`,
	`SELECT FROM WHERE`,
	`SELECT ((((1`,
	`SELECT * FROM t WHERE a = '`,
	`SELECT sum( FROM t`,
	"SELECT \x00\xff FROM t",
	`SELECT DATE '' FROM t`,
}

// fuzzCatalog gives CompileStatement something to resolve against so the
// fuzzer reaches the plan builder, not just the parser.
var fuzzCatalog = func() *catalog.Catalog {
	cat := catalog.New()
	t := catalog.NewTable("t", catalog.Schema{
		{Name: "a", Typ: vector.Int64},
		{Name: "b", Typ: vector.Float64},
		{Name: "c", Typ: vector.Int64},
		{Name: "d", Typ: vector.Int64},
		{Name: "s", Typ: vector.String},
		{Name: "u", Typ: vector.Int64},
		{Name: "x", Typ: vector.Int64},
	})
	cat.AddTable(t)
	sales := catalog.NewTable("sales", catalog.Schema{
		{Name: "region", Typ: vector.String},
		{Name: "product", Typ: vector.Int64},
		{Name: "amount", Typ: vector.Float64},
		{Name: "qty", Typ: vector.Int64},
		{Name: "day", Typ: vector.Date},
	})
	cat.AddTable(sales)
	return cat
}()

// FuzzParse fuzzes the whole SQL front end: lexing, parsing, normalization,
// splitting, session statements and plan building must return errors,
// never panic, and positioned errors must point inside (or just past) the
// input. Every session-statement error is positioned.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		checkPos := func(err error, mustBePositioned bool) {
			var pe *Error
			switch {
			case errors.As(err, &pe):
				if pe.Pos < 0 || pe.Pos > len(src) {
					t.Fatalf("error position %d outside input of length %d", pe.Pos, len(src))
				}
			case err != nil && mustBePositioned:
				t.Fatalf("unpositioned error %v", err)
			}
		}
		c, err := CompileStatement(src, fuzzCatalog)
		checkPos(err, false)
		if err == nil && c == nil {
			t.Fatal("nil statement without error")
		}
		u, err := ParseUtility(src)
		checkPos(err, true)
		// The server takes ParseUtility's empty statement for a text
		// Split finds no statement in.
		if empty := u != nil && u.Tag == ""; empty != (len(Split(src)) == 0) {
			t.Fatalf("%q: ParseUtility empty = %v, Split = %q", src, empty, Split(src))
		}
		// Normalization must be total (it falls back to src on lex errors)
		// and idempotent: normalizing a normalized text is a fixpoint,
		// or the plan cache would miss its own keys.
		n1 := Normalize(src)
		if n2 := Normalize(n1); n2 != n1 {
			t.Fatalf("Normalize not idempotent:\n  once:  %q\n  twice: %q", n1, n2)
		}
		// Split cuts at the whole text's top-level ';' tokens: each piece
		// lexes to exactly the tokens between two of them.
		toks, err := lex(src)
		if err != nil {
			return
		}
		var want [][]token
		var cur []token
		for _, tk := range toks {
			if tk.kind != tokEOF && (tk.kind != tokSymbol || tk.text != ";") {
				cur = append(cur, tk)
			} else if len(cur) > 0 {
				want, cur = append(want, cur), nil
			}
		}
		pieces := Split(src)
		if len(pieces) != len(want) {
			t.Fatalf("Split gave %d pieces, the text has %d statements: %q", len(pieces), len(want), pieces)
		}
		for i, piece := range pieces {
			got, err := lex(piece)
			if err != nil || len(got) != len(want[i])+1 {
				t.Fatalf("piece %d %q lexes to %d tokens (%v), want %d", i, piece, len(got)-1, err, len(want[i]))
			}
			for j, tk := range want[i] {
				if got[j].kind != tk.kind || got[j].text != tk.text {
					t.Fatalf("piece %d %q token %d: %+v, want %+v", i, piece, j, got[j], tk)
				}
			}
		}
	})
}
