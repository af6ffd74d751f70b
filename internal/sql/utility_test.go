package sql

import (
	"errors"
	"strings"
	"testing"

	"recycledb/internal/opt"
)

// TestStatementProbes holds the texts a wire client sends that once failed
// before the grammar saw them: each is classified by the front end alone,
// as a session statement, a query, or an empty statement.
func TestStatementProbes(t *testing.T) {
	cases := []struct {
		in    string
		util  *Utility // the session statement, or nil
		kind  StmtKind // otherwise the compiled kind, unless empty
		empty bool
	}{
		{in: "/* c */ SET statement_timeout = 5000", util: &Utility{Tag: "SET", Name: "statement_timeout", Value: "5000"}},
		{in: "-- c\nSHOW statement_timeout", util: &Utility{Tag: "SHOW", Name: "statement_timeout"}},
		{in: "SHOW statement_timeout -- tail", util: &Utility{Tag: "SHOW", Name: "statement_timeout"}},
		{in: "SET statement_timeout = 5000 -- tail", util: &Utility{Tag: "SET", Name: "statement_timeout", Value: "5000"}},
		{in: "SET application_name = 'it''s'", util: &Utility{Tag: "SET", Name: "application_name", Value: "it's"}},
		{in: "EXPLAIN SELECT region, count(*) AS n FROM sales GROUP BY region", kind: StmtExplain},
		{in: "-- only a comment", util: &Utility{}, empty: true},
	}
	cat := testCatalog()
	for _, tc := range cases {
		u, err := ParseUtility(tc.in)
		if err != nil || (u == nil) != (tc.util == nil) || u != nil && *u != *tc.util {
			t.Errorf("%q: ParseUtility = %+v, %v; want %+v", tc.in, u, err, tc.util)
			continue
		}
		if empty := len(Split(tc.in)) == 0; empty != tc.empty {
			t.Errorf("%q: empty = %v", tc.in, empty)
		}
		if tc.util != nil || tc.empty {
			continue
		}
		if c, err := CompileStatement(tc.in, cat); err != nil || c.Kind != tc.kind {
			t.Errorf("%q: compiled %+v, %v; want kind %v", tc.in, c, err, tc.kind)
		}
	}
}

func TestParseUtility(t *testing.T) {
	cases := []struct {
		in   string
		want Utility
	}{
		{"SET statement_timeout = 100", Utility{Tag: "SET", Name: "statement_timeout", Value: "100"}},
		{"set LOCAL Statement_Timeout TO '5s';", Utility{Tag: "SET", Name: "statement_timeout", Value: "5s"}},
		{"SET SESSION recycling_mode = spec", Utility{Tag: "SET", Name: "recycling_mode", Value: "spec"}},
		{"SET extra_float_digits = -3", Utility{Tag: "SET", Name: "extra_float_digits", Value: "-3"}},
		{"  show server_version ;", Utility{Tag: "SHOW", Name: "server_version"}},
		{"RESET ALL", Utility{Tag: "RESET", Name: "all"}},
		{"reset statement_timeout", Utility{Tag: "RESET", Name: "statement_timeout"}},
		{"BEGIN", Utility{Tag: "BEGIN"}},
		{"begin work", Utility{Tag: "BEGIN"}},
		{"START TRANSACTION", Utility{Tag: "BEGIN"}},
		{"COMMIT;", Utility{Tag: "COMMIT"}},
		{"END TRANSACTION", Utility{Tag: "COMMIT"}},
		{"ROLLBACK", Utility{Tag: "ROLLBACK"}},
		{"DISCARD ALL", Utility{Tag: "DISCARD ALL"}},
	}
	for _, tc := range cases {
		u, err := ParseUtility(tc.in)
		if err != nil || u == nil || *u != tc.want {
			t.Errorf("%q: got %+v, %v; want %+v", tc.in, u, err, tc.want)
		}
	}
	// A text with no token but semicolons is the empty statement.
	for _, in := range []string{"", "-- c", " ; ;", "/* a */ ;"} {
		if u, err := ParseUtility(in); err != nil || u == nil || *u != (Utility{}) {
			t.Errorf("%q: got %+v, %v; want the empty statement", in, u, err)
		}
	}
	// Texts that are not session statements are the compiler's, and so is
	// a text the lexer rejects.
	for _, in := range []string{"SELECT 1", "settle the question", "'set'", "INSERT INTO t VALUES (1)", "/* open"} {
		if u, err := ParseUtility(in); u != nil || err != nil {
			t.Errorf("%q: got %+v, %v; want neither", in, u, err)
		}
	}
	errs := []struct {
		in     string
		pos    int
		errSub string
	}{
		{"start work", 6, "expected TRANSACTION"},
		{"SET statement_timeout 5", 22, "expected = or TO"},
		{"SET statement_timeout =", 23, "expected a SET value"},
		{"SET x = a:b", 9, "trailing input"},
		{"SET x = - 'a'", 10, "expected a SET value"},
		{`SET "x" = 1`, 4, "expected identifier"},
		{"SET x = 'open", 8, "unterminated string literal"},
		{"SHOW", 4, "expected identifier"},
		{"DISCARD PLANS", 8, "expected ALL"},
		{"COMMIT now", 7, "trailing input"},
		{"SET search_path TO a, b", 20, "trailing input"},
		{"BEGIN ISOLATION LEVEL SERIALIZABLE", 6, "trailing input"},
	}
	for _, tc := range errs {
		_, err := ParseUtility(tc.in)
		var se *Error
		if !errors.As(err, &se) || se.Pos != tc.pos || !strings.Contains(se.Msg, tc.errSub) {
			t.Errorf("%q: want error at %d containing %q, got %v", tc.in, tc.pos, tc.errSub, err)
		}
	}
}

// TestCompileExplain checks that EXPLAIN carries its SELECT's template, so
// it binds the same parameters to the same plan, and that what it cannot
// explain is a positioned error.
func TestCompileExplain(t *testing.T) {
	cat := testCatalog()
	const q = "SELECT region FROM sales WHERE product > $1 -- c"
	sel, err := CompileStatement(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := CompileStatement("/* why */ explain "+q+";", cat)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Kind != StmtExplain || ex.Kind.String() != "EXPLAIN" || ex.NumParams() != 1 {
		t.Fatalf("EXPLAIN compiled to %v with %d parameters", ex.Kind, ex.NumParams())
	}
	if a, b := opt.ShapeKey(sel.Query.Plan), opt.ShapeKey(ex.Query.Plan); a != b {
		t.Fatalf("EXPLAIN template %s, SELECT template %s", b, a)
	}
	if Normalize("EXPLAIN "+q) != Normalize("explain "+q) {
		t.Fatal("EXPLAIN's keyword is not normalized")
	}
	errs := []struct {
		in     string
		pos    int
		errSub string
	}{
		{"EXPLAIN ANALYZE SELECT region FROM sales", 8, "EXPLAIN ANALYZE is not supported"},
		{"EXPLAIN INSERT INTO sales VALUES ('n', 1, 2.0, 3, DATE '1996-01-01')", 8, "EXPLAIN of INSERT is not supported"},
		{"explain delete from sales", 8, "EXPLAIN of DELETE is not supported"},
		{"EXPLAIN CREATE TABLE x (a INT)", 8, "EXPLAIN of CREATE is not supported"},
		{"EXPLAIN", 7, "expected SELECT"},
		{"EXPLAIN EXPLAIN SELECT region FROM sales", 8, "expected SELECT"},
		{"EXPLAIN SELECT region FROM sales extra words", 39, "trailing input"},
	}
	for _, tc := range errs {
		_, err := CompileStatement(tc.in, cat)
		var se *Error
		if !errors.As(err, &se) || se.Pos != tc.pos || !strings.Contains(se.Msg, tc.errSub) {
			t.Errorf("%q: want error at %d containing %q, got %v", tc.in, tc.pos, tc.errSub, err)
		}
	}
}
