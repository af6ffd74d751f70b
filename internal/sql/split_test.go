package sql

import (
	"errors"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"recycledb/internal/catalog"
	"recycledb/internal/opt"
	"recycledb/internal/plan"
	"recycledb/internal/tpch"
	"recycledb/internal/vector"
)

func TestSplit(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"SELECT 1", []string{"SELECT 1"}},
		{"SELECT 1; SELECT 2", []string{"SELECT 1", "SELECT 2"}},
		{"SELECT 1;;  ;", []string{"SELECT 1"}},
		{"SELECT 'a;b'; SELECT 2", []string{"SELECT 'a;b'", "SELECT 2"}},
		{`SELECT ";" FROM "t;u"`, []string{`SELECT ";" FROM "t;u"`}},
		{"SELECT 1 -- tail; not a split\n; SELECT 2", []string{"SELECT 1 -- tail; not a split", "SELECT 2"}},
		{"/* x;y */ SELECT 1", []string{"/* x;y */ SELECT 1"}},
		{"SELECT /* a /* nested; */ b; */ 1; SELECT 2", []string{"SELECT /* a /* nested; */ b; */ 1", "SELECT 2"}},
		{"", nil},
		{"   ", nil},
		{"-- only a comment; really", nil},
		{"SELECT 1; /* */ ;", []string{"SELECT 1"}},
		// Bytes the grammar has no use for still split; parsing the piece
		// reports them.
		{"SET x = a:b; SELECT 1", []string{"SET x = a:b", "SELECT 1"}},
		// A lex error ends the cutting; the rest is the last piece, whose
		// compilation reports the error.
		{"SELECT 1; SELECT 'oops; SELECT 2", []string{"SELECT 1", "SELECT 'oops; SELECT 2"}},
		{"SELECT 1; /* open; SELECT 2", []string{"SELECT 1", "/* open; SELECT 2"}},
	}
	for _, tc := range cases {
		if got := Split(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%q: got %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestDollarParams checks $N binding: each statement, bound to args, plans
// the same as its literal twin.
func TestDollarParams(t *testing.T) {
	i, f, s := vector.NewInt64Datum, vector.NewFloat64Datum, vector.NewStringDatum
	cases := []struct {
		in      string
		nparams int
		args    []vector.Datum
		literal string
	}{
		{`SELECT region FROM sales`, 0, nil, `SELECT region FROM sales`},
		{`SELECT region FROM sales WHERE product > $1`, 1, []vector.Datum{i(3)},
			`SELECT region FROM sales WHERE product > 3`},
		// Out of order.
		{`SELECT region FROM sales WHERE product > $2 AND amount < $1`, 2, []vector.Datum{f(1.5), i(3)},
			`SELECT region FROM sales WHERE product > 3 AND amount < 1.5`},
		// Repeated.
		{`SELECT region FROM sales WHERE product = $1 OR product > $1`, 1, []vector.Datum{i(4)},
			`SELECT region FROM sales WHERE product = 4 OR product > 4`},
		{`SELECT region FROM sales WHERE region = $2 AND region <> $1 OR region = $2`, 2,
			[]vector.Datum{s("a"), s("b")},
			`SELECT region FROM sales WHERE region = 'b' AND region <> 'a' OR region = 'b'`},
		// Gapped: $2 is bound but unused.
		{`SELECT region FROM sales WHERE product > $1 AND amount < $3`, 3, []vector.Datum{i(3), s("unused"), f(1.5)},
			`SELECT region FROM sales WHERE product > 3 AND amount < 1.5`},
		// $N inside strings and comments is text.
		{`SELECT region FROM sales WHERE region = '$1' AND product = $1`, 1, []vector.Datum{i(2)},
			`SELECT region FROM sales WHERE region = '$1' AND product = 2`},
		{`SELECT region FROM sales WHERE region = 'it''s $2'`, 0, nil,
			`SELECT region FROM sales WHERE region = 'it''s $2'`},
		{"SELECT region -- $2\nFROM sales WHERE product = $1", 1, []vector.Datum{i(2)},
			`SELECT region FROM sales WHERE product = 2`},
		{`SELECT region /* $1 /* $2 */ */ FROM sales`, 0, nil, `SELECT region FROM sales`},
	}
	cat := testCatalog()
	for _, tc := range cases {
		c, err := CompileStatement(tc.in, cat)
		if err != nil {
			t.Errorf("%q: %v", tc.in, err)
			continue
		}
		tmpl := c.Query
		if tmpl.NumParams != tc.nparams {
			t.Errorf("%q: NumParams %d, want %d", tc.in, tmpl.NumParams, tc.nparams)
		}
		if _, err := tmpl.Bind(tc.args[:max(len(tc.args)-1, 0)]); tc.nparams > 0 && err == nil {
			t.Errorf("%q: binding one parameter too few must fail", tc.in)
		}
		got := boundShape(t, cat, tmpl, tc.args)
		want := boundShape(t, cat, NewTemplate(mustPlan(t, cat, tc.literal), 0), nil)
		if got != want {
			t.Errorf("%q: bound to\n  %s\nwant (as %q)\n  %s", tc.in, got, tc.literal, want)
		}
	}
}

func TestFrontEndErrorPositions(t *testing.T) {
	cases := []struct {
		in     string
		pos    int
		errSub string
	}{
		{`SELECT $$body$$ FROM sales`, 7, "dollar-quoted"},
		{`SELECT $0 FROM sales`, 7, "bad parameter number $0"},
		{`SELECT $99999999999999999999 FROM sales`, 7, "bad parameter number"},
		{`SELECT region FROM sales WHERE product > ? AND amount < $1`, 56, "cannot mix"},
		{`SELECT region FROM sales WHERE product > $1 AND amount < ?`, 57, "cannot mix"},
		{`INSERT INTO sales VALUES ($1, ?, 1.5, $2)`, 30, "cannot mix"},
		{`SELECT "$1" FROM sales`, 7, "quoted identifiers are not supported"},
		{`SELECT region FROM "sales"`, 19, "quoted identifiers are not supported"},
		{`SELECT region FROM sales WHERE amount @ 1`, 38, `"@"`},
		{`SELECT region FROM sales /* open`, 25, "unterminated comment"},
		{`SELECT "open FROM sales`, 7, "unterminated quoted identifier"},
		{`SELECT region FROM sales WHERE day > DATE '1997-13-01'`, 42, "bad date literal"},
	}
	cat := testCatalog()
	for _, tc := range cases {
		_, err := CompileStatement(tc.in, cat)
		var se *Error
		if !errors.As(err, &se) || se.Pos != tc.pos || !strings.Contains(se.Msg, tc.errSub) {
			t.Errorf("%q: want error at %d containing %q, got %v", tc.in, tc.pos, tc.errSub, err)
		}
	}
	// A quoted identifier hides $N from the lexer as a string does.
	toks, err := lex(`SELECT "$1" FROM t`)
	if err != nil || toks[1].kind != tokQuoted || toks[1].text != `"$1"` {
		t.Fatalf("quoted identifier lexed as %+v (%v)", toks[1], err)
	}
}

func TestCommentsAreSkipped(t *testing.T) {
	plain := Normalize("SELECT region FROM sales WHERE product = 3")
	for _, src := range []string{
		"SELECT region FROM sales WHERE product = 3 -- trailing",
		"SELECT region /* c; d */ FROM sales WHERE product = 3",
		"-- leading\nSELECT region FROM sales WHERE /* a /* b */ */ product = 3;",
		"SELECT region FROM sales WHERE product = 3--",
	} {
		if got := Normalize(src); got != plain {
			t.Errorf("%q normalizes to %q, want %q", src, got, plain)
		}
		if _, err := CompileStatement(src, testCatalog()); err != nil {
			t.Errorf("%q: %v", src, err)
		}
	}
	// 1--1 is 1 followed by a comment, as in PostgreSQL.
	if got := Normalize("SELECT 1--1\n- 1 FROM t"); got != "select 1 - 1 from t" {
		t.Fatalf("got %q", got)
	}
}

// TestDollarParamsBindLikeReorderedQuestionMarks pins that reading $N in
// the engine binds what the wire server's old translation did: the $N text
// with its args plans exactly as the ? text does with the args permuted
// into placeholder order. The statements are the wire tests' $N ones and
// a TPC-H Q3 template with $N out of order and repeated.
func TestDollarParamsBindLikeReorderedQuestionMarks(t *testing.T) {
	wire := catalog.New()
	wire.AddTable(catalog.NewTable("big", catalog.Schema{
		{Name: "region", Typ: vector.String}, {Name: "product", Typ: vector.Int64},
		{Name: "amount", Typ: vector.Float64}, {Name: "qty", Typ: vector.Int64},
		{Name: "day", Typ: vector.Date},
	}))
	wire.AddTable(catalog.NewTable("kv", catalog.Schema{
		{Name: "k", Typ: vector.Int64}, {Name: "v", Typ: vector.String},
	}))
	tpcCat := catalog.New()
	tpch.Generate(tpcCat, 0.001, 1)
	i, s := vector.NewInt64Datum, vector.NewStringDatum
	date := func(d string) vector.Datum { return vector.NewDateDatum(vector.MustParseDate(d)) }
	cases := []struct {
		cat  *catalog.Catalog
		src  string
		args []vector.Datum
	}{
		{wire, `SELECT region, sum(amount) AS total, count(*) AS n FROM big WHERE qty > $1 GROUP BY region ORDER BY region`, []vector.Datum{i(25)}},
		{wire, `SELECT product, qty FROM big WHERE qty > $1`, []vector.Datum{i(40)}},
		{wire, `SELECT count(*) AS n FROM big WHERE qty > $1`, []vector.Datum{i(10)}},
		{wire, `SELECT region, sum(amount) AS total FROM big WHERE qty > $1 GROUP BY region`, []vector.Datum{i(5)}},
		{wire, "SELECT count(*) AS n /* c; d */ FROM big -- $2\nWHERE qty > $1", []vector.Datum{i(25)}},
		{wire, `INSERT INTO kv (k, v) VALUES ($1, $2)`, []vector.Datum{i(7), s("seven")}},
		{wire, `INSERT INTO kv (v, k) VALUES ($2, $1), ($2, 8)`, []vector.Datum{i(7), s("seven")}},
		{tpcCat, `SELECT l_orderkey, sum(l_extendedprice * (1 - l_discount)) AS revenue
		 FROM customer, orders, lineitem
		 WHERE c_mktsegment = $2 AND c_custkey = o_custkey AND l_orderkey = o_orderkey
		   AND o_orderdate < $1 AND l_shipdate > $1
		 GROUP BY l_orderkey ORDER BY revenue DESC LIMIT 10`,
			[]vector.Datum{date("1995-03-15"), s("BUILDING")}},
	}
	for _, tc := range cases {
		qsrc, qargs := questionMarks(t, tc.src, tc.args)
		dc, err := CompileStatement(tc.src, tc.cat)
		if err != nil {
			t.Fatalf("%q: %v", tc.src, err)
		}
		qc, err := CompileStatement(qsrc, tc.cat)
		if err != nil {
			t.Fatalf("%q: %v", qsrc, err)
		}
		if dc.Kind == StmtInsert {
			_, drows, derr := dc.BindInsert(tc.cat, tc.args)
			_, qrows, qerr := qc.BindInsert(tc.cat, qargs)
			if derr != nil || qerr != nil || !reflect.DeepEqual(drows, qrows) {
				t.Errorf("%q: $N rows %v (%v), ? rows %v (%v)", tc.src, drows, derr, qrows, qerr)
			}
			continue
		}
		if got, want := boundShape(t, tc.cat, dc.Query, tc.args), boundShape(t, tc.cat, qc.Query, qargs); got != want {
			t.Errorf("%q:\n  $N: %s\n  ?:  %s", tc.src, got, want)
		}
	}
}

// questionMarks rewrites src's $N placeholders to ? and permutes args the
// way the wire server did before the engine read $N: the i-th ? binds the
// argument the i-th $N names.
func questionMarks(t *testing.T, src string, args []vector.Datum) (string, []vector.Datum) {
	t.Helper()
	toks, err := lex(src)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	var out []vector.Datum
	last := 0
	for _, tk := range toks {
		if tk.kind != tokParam {
			continue
		}
		n, _ := strconv.Atoi(tk.text[1:])
		b.WriteString(src[last:tk.pos])
		b.WriteByte('?')
		last = tk.pos + len(tk.text)
		out = append(out, args[n-1])
	}
	b.WriteString(src[last:])
	return b.String(), out
}

// boundShape binds args into tmpl, resolves the plan, and returns its
// opt.ShapeKey.
func boundShape(t *testing.T, cat *catalog.Catalog, tmpl *Template, args []vector.Datum) string {
	t.Helper()
	p, err := tmpl.Bind(args)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Resolve(cat); err != nil {
		t.Fatal(err)
	}
	return opt.ShapeKey(p)
}

func mustPlan(t *testing.T, cat *catalog.Catalog, src string) *plan.Node {
	t.Helper()
	c, err := CompileStatement(src, cat)
	if err != nil {
		t.Fatalf("%q: %v", src, err)
	}
	return c.Query.Plan
}
