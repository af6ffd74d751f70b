package recycledb

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"recycledb/internal/vector"
)

// Plan identity regressions. The optimized-shape cache, the optimizer's
// memo and the recycler graph all decide when two plan nodes are "the
// same"; a statement that shares an identity with an earlier one replays
// the earlier one's plan or results. Each test runs a statement after a
// look-alike on one engine and requires exactly what a fresh engine
// returns for it: the same rows, column names and column types.

// identityModes are the modes every identity regression runs in.
var identityModes = []Mode{Off, History, Speculative, Proactive}

// answer is a statement's result in comparable form.
type answer struct {
	names []string
	types []vector.Type
	rows  []string
}

// answerOf runs q on e and returns its answer, turning a panic anywhere in
// planning or execution into a test failure.
func answerOf(t *testing.T, e *Engine, q string) (a answer) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s panicked: %v", q, r)
		}
	}()
	rows, err := e.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	res, err := rows.Collect()
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	for _, c := range res.Schema {
		a.names = append(a.names, c.Name)
		a.types = append(a.types, c.Typ)
	}
	for _, b := range res.Batches {
		for i := 0; i < b.Len(); i++ {
			a.rows = append(a.rows, fmt.Sprint(b.Row(i)))
		}
	}
	return a
}

// requireFreshAnswer runs warm (each statement three times, so every mode
// has stored what it would) and then q on one engine, and requires q's
// answer to equal a fresh engine's.
func requireFreshAnswer(t *testing.T, mode Mode, warm []string, q string) {
	t.Helper()
	fresh := New(Config{Mode: mode})
	loadSales(fresh, 1000)
	want := answerOf(t, fresh, q)
	e := New(Config{Mode: mode})
	loadSales(e, 1000)
	for _, w := range warm {
		for i := 0; i < 3; i++ {
			answerOf(t, e, w)
		}
	}
	got := answerOf(t, e, q)
	if !slices.Equal(got.names, want.names) || !slices.Equal(got.types, want.types) {
		t.Fatalf("%s after %q: columns %v %v, a fresh engine returns %v %v",
			q, warm, got.names, got.types, want.names, want.types)
	}
	if !slices.Equal(got.rows, want.rows) {
		t.Fatalf("%s after %q: rows %v, a fresh engine returns %v", q, warm, got.rows, want.rows)
	}
}

// TestShapeKeyTellsAliasesApart swaps two aliases that the ORDER BY names:
// the second statement computes the same columns as the first but sorts by
// the other one, so replaying the first one's optimized shape returns the
// wrong rows under the wrong names.
func TestShapeKeyTellsAliasesApart(t *testing.T) {
	const first = `SELECT product AS a, qty AS b FROM sales ORDER BY a, b LIMIT 3`
	const second = `SELECT product AS b, qty AS a FROM sales ORDER BY a, b LIMIT 3`
	for _, mode := range identityModes {
		t.Run(mode.String(), func(t *testing.T) {
			requireFreshAnswer(t, mode, []string{first}, second)
		})
	}
}

// TestLiteralTypeIsPartOfIdentity follows an integer literal with the same
// float literal: qty * 2 is an int64 column and qty * 2.0 a float64 one, so
// no cached plan or result of the first may serve the second.
func TestLiteralTypeIsPartOfIdentity(t *testing.T) {
	cases := []struct{ warm, q string }{
		{`SELECT region, sum(qty * 2) AS s, count(*) AS c FROM sales GROUP BY region`,
			`SELECT region, sum(qty * 2.0) AS s, count(*) AS c FROM sales GROUP BY region ORDER BY region LIMIT 3`},
		{`SELECT product, qty * 2 AS x FROM sales`,
			`SELECT product, qty * 2.0 AS x FROM sales ORDER BY product, x LIMIT 5`},
		{`SELECT product, qty * 2 AS x FROM sales`, `SELECT product, qty * 2.0 AS x FROM sales`},
	}
	for _, mode := range identityModes {
		t.Run(mode.String(), func(t *testing.T) {
			for _, c := range cases {
				requireFreshAnswer(t, mode, []string{c.warm}, c.q)
			}
		})
	}
	// A fresh engine's answer is float64 in every mode, Off included.
	e := New(Config{Mode: Off})
	loadSales(e, 1000)
	answerOf(t, e, cases[2].warm)
	if a := answerOf(t, e, cases[2].q); a.types[1] != vector.Float64 {
		t.Fatalf("qty * 2.0 after qty * 2 in Off mode is %v", a.types[1])
	}
}
