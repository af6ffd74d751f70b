package sql

import (
	"errors"
	"strings"
	"testing"

	"recycledb/internal/catalog"
	"recycledb/internal/exec"
	"recycledb/internal/plan"
	"recycledb/internal/vector"
)

func testCatalog() *catalog.Catalog {
	cat := catalog.New()
	sales := catalog.NewTable("sales", catalog.Schema{
		{Name: "region", Typ: vector.String},
		{Name: "product", Typ: vector.Int64},
		{Name: "amount", Typ: vector.Float64},
		{Name: "day", Typ: vector.Date},
	})
	wsales := sales.BeginWrite()
	ap := wsales.Appender()
	regions := []string{"north", "south", "east", "west"}
	base := vector.MustParseDate("1997-01-01")
	for i := 0; i < 1000; i++ {
		ap.String(0, regions[i%4])
		ap.Int64(1, int64(i%10))
		ap.Float64(2, float64(i%100))
		ap.Int64(3, base+int64(i%700))
		ap.FinishRow()
	}
	wsales.Commit()
	cat.AddTable(sales)
	products := catalog.NewTable("products", catalog.Schema{
		{Name: "pid", Typ: vector.Int64},
		{Name: "pname", Typ: vector.String},
	})
	for i := 0; i < 10; i++ {
		products.AppendRows([]vector.Datum{vector.NewInt64Datum(int64(i)),
			vector.NewStringDatum("product-" + string(rune('a'+i)))})
	}
	cat.AddTable(products)
	cat.AddFunc(&catalog.TableFunc{
		Name:   "series",
		Schema: catalog.Schema{{Name: "n", Typ: vector.Int64}},
		Invoke: func(c *catalog.Catalog, args []vector.Datum) (*catalog.Result, error) {
			b := vector.NewBatch([]vector.Type{vector.Int64}, 8)
			for i := int64(0); i < args[0].I64; i++ {
				b.Vecs[0].AppendInt64(i)
			}
			return &catalog.Result{
				Schema:  catalog.Schema{{Name: "n", Typ: vector.Int64}},
				Batches: []*vector.Batch{b},
			}, nil
		},
	})
	return cat
}

func mustCompile(t *testing.T, src string) (*plan.Node, *catalog.Catalog) {
	t.Helper()
	cat := testCatalog()
	c, err := CompileStatement(src, cat)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	return c.Query.Plan, cat
}

func runSQL(t *testing.T, src string) *catalog.Result {
	t.Helper()
	p, cat := mustCompile(t, src)
	ctx := exec.NewCtx(cat)
	op, err := exec.Build(ctx, p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.Run(ctx, op)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSelectStar(t *testing.T) {
	res := runSQL(t, "SELECT * FROM sales")
	if res.Rows() != 1000 || len(res.Schema) != 4 {
		t.Fatalf("rows=%d cols=%d", res.Rows(), len(res.Schema))
	}
}

func TestWherePushdown(t *testing.T) {
	p, _ := mustCompile(t, "SELECT * FROM sales WHERE amount > 50")
	// The filter must sit directly on the scan.
	if p.Op != plan.Select || p.Children[0].Op != plan.Scan {
		t.Fatalf("plan shape:\n%s", p)
	}
	res := runSQL(t, "SELECT * FROM sales WHERE amount > 50")
	if res.Rows() != 490 {
		t.Fatalf("rows = %d", res.Rows())
	}
}

func TestProjectionAndAliases(t *testing.T) {
	res := runSQL(t, "SELECT amount * 2 AS dbl, region FROM sales WHERE product = 3")
	if res.Schema[0].Name != "dbl" || res.Schema[1].Name != "region" {
		t.Fatalf("schema = %v", res.Schema)
	}
	if res.Rows() != 100 {
		t.Fatalf("rows = %d", res.Rows())
	}
}

func TestGroupByAggregates(t *testing.T) {
	res := runSQL(t, `
		SELECT region, sum(amount) AS total, count(*) AS n, avg(amount) AS mean
		FROM sales GROUP BY region ORDER BY region`)
	if res.Rows() != 4 {
		t.Fatalf("groups = %d", res.Rows())
	}
	b := res.Batches[0]
	if b.Vecs[0].Str[0] != "east" {
		t.Fatalf("order wrong: %v", b.Vecs[0].Str)
	}
	for i := 0; i < b.Len(); i++ {
		if b.Vecs[2].I64[i] != 250 {
			t.Fatalf("count = %d", b.Vecs[2].I64[i])
		}
	}
}

func TestImplicitJoin(t *testing.T) {
	p, _ := mustCompile(t,
		"SELECT pname, amount FROM sales, products WHERE product = pid AND amount > 90")
	found := false
	p.Walk(func(n *plan.Node) {
		if n.Op == plan.Join && len(n.LeftKeys) == 1 {
			found = true
		}
	})
	if !found {
		t.Fatalf("no keyed join in plan:\n%s", p)
	}
	res := runSQL(t,
		"SELECT pname, amount FROM sales, products WHERE product = pid AND amount > 90")
	if res.Rows() != 90 {
		t.Fatalf("rows = %d", res.Rows())
	}
}

func TestOrderByLimitFusesTopN(t *testing.T) {
	p, _ := mustCompile(t, "SELECT region, amount FROM sales ORDER BY amount DESC LIMIT 5")
	if p.Op != plan.TopN || p.N != 5 {
		t.Fatalf("expected topn root, got %v", p.Op)
	}
	res := runSQL(t, "SELECT region, amount FROM sales ORDER BY amount DESC LIMIT 5")
	if res.Rows() != 5 {
		t.Fatalf("rows = %d", res.Rows())
	}
	if res.Batches[0].Vecs[1].F64[0] != 99 {
		t.Fatalf("top amount = %v", res.Batches[0].Vecs[1].F64[0])
	}
}

func TestHaving(t *testing.T) {
	res := runSQL(t, `
		SELECT product, sum(amount) AS total FROM sales
		GROUP BY product HAVING total > 5000 ORDER BY total DESC`)
	for _, b := range res.Batches {
		for _, v := range b.Vecs[1].F64 {
			if v <= 5000 {
				t.Fatalf("having violated: %v", v)
			}
		}
	}
}

func TestDateLiteralsAndFunctions(t *testing.T) {
	res := runSQL(t, `
		SELECT year(day) AS y, count(*) AS n FROM sales
		WHERE day >= DATE '1998-01-01' GROUP BY y ORDER BY y`)
	if res.Rows() == 0 {
		t.Fatal("no rows")
	}
	if res.Batches[0].Vecs[0].I64[0] != 1998 {
		t.Fatalf("year = %d", res.Batches[0].Vecs[0].I64[0])
	}
}

func TestLikeInBetween(t *testing.T) {
	res := runSQL(t, "SELECT * FROM sales WHERE region LIKE 'n%'")
	if res.Rows() != 250 {
		t.Fatalf("like rows = %d", res.Rows())
	}
	res = runSQL(t, "SELECT * FROM sales WHERE region IN ('north', 'south')")
	if res.Rows() != 500 {
		t.Fatalf("in rows = %d", res.Rows())
	}
	res = runSQL(t, "SELECT * FROM sales WHERE amount BETWEEN 10 AND 19")
	if res.Rows() != 100 {
		t.Fatalf("between rows = %d", res.Rows())
	}
	res = runSQL(t, "SELECT * FROM sales WHERE region NOT LIKE 'n%' AND NOT amount > 10")
	if res.Rows() == 0 {
		t.Fatal("not-like rows = 0")
	}
}

func TestCaseExpression(t *testing.T) {
	res := runSQL(t, `
		SELECT sum(CASE WHEN region = 'north' THEN amount ELSE 0 END) AS north_total
		FROM sales`)
	if res.Rows() != 1 {
		t.Fatalf("rows = %d", res.Rows())
	}
	if res.Batches[0].Vecs[0].F64[0] <= 0 {
		t.Fatal("case sum not positive")
	}
}

func TestTableFunctionInFrom(t *testing.T) {
	res := runSQL(t, "SELECT sum(n) AS s FROM series(10)")
	if res.Batches[0].Vecs[0].F64 != nil {
		t.Fatal("sum over int should stay int")
	}
	if res.Batches[0].Vecs[0].I64[0] != 45 {
		t.Fatalf("sum = %d", res.Batches[0].Vecs[0].I64[0])
	}
}

func TestParseErrors(t *testing.T) {
	cat := testCatalog()
	for _, bad := range []string{
		"",
		"SELECT",
		"SELECT * FROM",
		"SELECT * FROM nope",
		"SELECT * FROM sales WHERE",
		"SELECT * FROM sales LIMIT x",
		"SELECT amount FROM sales GROUP BY region",
		"SELECT * FROM sales WHERE bogus > 1",
		"SELECT * FROM sales WHERE region LIKE 5",
		"SELECT * FROM sales extra tokens here",
		"SELECT * FROM sales, products", // ambiguous? no: distinct col names, but cross join ok
	} {
		if _, err := CompileStatement(bad, cat); err == nil && bad != "SELECT * FROM sales, products" {
			t.Errorf("expected error for %q", bad)
		}
	}
}

func TestAmbiguousColumnsRejected(t *testing.T) {
	cat := testCatalog()
	dup := catalog.NewTable("dup", catalog.Schema{{Name: "region", Typ: vector.String}})
	cat.AddTable(dup)
	if _, err := CompileStatement("SELECT * FROM sales, dup", cat); err == nil ||
		!strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("expected ambiguity error, got %v", err)
	}
}

func TestStringEscapes(t *testing.T) {
	toks, err := lex("SELECT 'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].text != "it's" {
		t.Fatalf("escaped string = %q", toks[1].text)
	}
}

func TestCrossJoinWithoutPredicate(t *testing.T) {
	res := runSQL(t, "SELECT count(*) AS n FROM products, series(3)")
	if res.Batches[0].Vecs[0].I64[0] != 30 {
		t.Fatalf("cross join count = %d", res.Batches[0].Vecs[0].I64[0])
	}
}

func TestNormalize(t *testing.T) {
	cases := [][2]string{
		{"SELECT  region\nFROM sales;", "select region from sales"},
		{"select region from sales", "select region from sales"},
	}
	// Keyword case folds, identifier case does not; whitespace and the
	// trailing terminator never matter.
	if Normalize(cases[0][0]) != Normalize(cases[1][0]) {
		t.Fatalf("whitespace/terminator variants must normalize equal:\n%q\n%q",
			Normalize(cases[0][0]), Normalize(cases[1][0]))
	}
	if Normalize("SELECT T FROM sales") == Normalize("SELECT t FROM sales") {
		t.Fatal("identifier case must stay significant")
	}
	if Normalize("SELECT x FROM t WHERE a > ?") != "select x from t where a > ?" {
		t.Fatalf("unexpected normal form %q", Normalize("SELECT x FROM t WHERE a > ?"))
	}
}

func TestCompileTemplateAndBind(t *testing.T) {
	cat := testCatalog()
	c, err := CompileStatement("SELECT region FROM sales WHERE amount > ? AND product < ?", cat)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := c.Query
	if tmpl.NumParams != 2 {
		t.Fatalf("NumParams = %d, want 2", tmpl.NumParams)
	}
	if _, err := tmpl.Bind([]vector.Datum{vector.NewFloat64Datum(1)}); err == nil {
		t.Fatal("arity mismatch must error")
	}
	p, err := tmpl.Bind([]vector.Datum{
		vector.NewFloat64Datum(10), vector.NewInt64Datum(5),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Resolve(cat); err != nil {
		t.Fatalf("bound plan must resolve: %v", err)
	}
	// The template itself stays parameterized: binding again with other
	// values yields an independent plan.
	p2, err := tmpl.Bind([]vector.Datum{
		vector.NewFloat64Datum(99), vector.NewInt64Datum(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.Resolve(cat); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrorPositions(t *testing.T) {
	_, err := CompileStatement("SELECT region FROM sales WHERE amount >", testCatalog())
	if err == nil {
		t.Fatal("want parse error")
	}
	var se *Error
	if !errors.As(err, &se) {
		t.Fatalf("want *Error, got %T: %v", err, err)
	}
	if se.Pos <= 0 {
		t.Fatalf("position missing: %+v", se)
	}
	if _, err := lex("SELECT 'oops"); err == nil {
		t.Fatal("unterminated string must fail lexing")
	}
}
