package server

import (
	"reflect"
	"testing"

	"recycledb"
)

// wireAnswer runs q over a new connection to addr and returns its one
// result: the RowDescription's names and the DataRows.
func wireAnswer(t *testing.T, addr, q string) (columns []string, rows [][]string) {
	t.Helper()
	res, err := dial(t, addr).Query(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	if len(res) != 1 {
		t.Fatalf("%s: %d results", q, len(res))
	}
	for _, r := range res[0].Rows {
		if len(r) != len(res[0].Columns) {
			t.Fatalf("%s: DataRow of %d columns under a RowDescription of %d", q, len(r), len(res[0].Columns))
		}
	}
	return res[0].Columns, res[0].Rows
}

// requireFreshWireAnswer serves one engine that has run each of warm three
// times and one fresh engine, and requires q to answer alike on both, over
// the wire. A new connection to the warm server then still gets an answer.
func requireFreshWireAnswer(t *testing.T, mode recycledb.Mode, warm []string, q string) {
	t.Helper()
	serve := func() string {
		eng := recycledb.New(recycledb.Config{Mode: mode})
		loadBig(eng, 2000)
		addr, _, _ := startServer(t, eng, Config{})
		return addr
	}
	fresh, used := serve(), serve()
	wantCols, wantRows := wireAnswer(t, fresh, q)
	c := dial(t, used)
	for _, w := range warm {
		for i := 0; i < 3; i++ {
			if _, err := c.Query(w); err != nil {
				t.Fatalf("%s: %v", w, err)
			}
		}
	}
	cols, rows := wireAnswer(t, used, q)
	if !reflect.DeepEqual(cols, wantCols) || !reflect.DeepEqual(rows, wantRows) {
		t.Fatalf("%s after %q: %v %v, a fresh engine returns %v %v", q, warm, cols, rows, wantCols, wantRows)
	}
	if _, rows := wireAnswer(t, used, `SELECT count(*) AS n FROM big`); len(rows) != 1 || rows[0][0] != "2000" {
		t.Fatalf("a new connection after %s: %v", q, rows)
	}
}

// TestWireLiteralTypeKeepsServerUp follows int literals with the same float
// literals over pgwire. A float statement that replayed the int statement's
// cached results used to panic and take the server down with it.
func TestWireLiteralTypeKeepsServerUp(t *testing.T) {
	for _, mode := range []recycledb.Mode{recycledb.Off, recycledb.History, recycledb.Speculative, recycledb.Proactive} {
		t.Run(mode.String(), func(t *testing.T) {
			requireFreshWireAnswer(t, mode, []string{
				`SELECT region, sum(qty * 2) AS s, count(*) AS c FROM big GROUP BY region`,
			}, `SELECT region, sum(qty * 2.0) AS s, count(*) AS c FROM big GROUP BY region ORDER BY region LIMIT 3`)
			requireFreshWireAnswer(t, mode, []string{`SELECT product, qty * 2 AS x FROM big`},
				`SELECT product, qty * 2.0 AS x FROM big ORDER BY product, x LIMIT 5`)
		})
	}
}

// TestWireAliasesKeepTheirColumns swaps two aliases the ORDER BY names: the
// RowDescription must name the columns each DataRow carries.
func TestWireAliasesKeepTheirColumns(t *testing.T) {
	for _, mode := range []recycledb.Mode{recycledb.Off, recycledb.Speculative} {
		t.Run(mode.String(), func(t *testing.T) {
			requireFreshWireAnswer(t, mode, []string{`SELECT product AS a, qty AS b FROM big ORDER BY a, b LIMIT 3`},
				`SELECT product AS b, qty AS a FROM big ORDER BY a, b LIMIT 3`)
		})
	}
}
