package server

import (
	"reflect"
	"testing"

	"recycledb"
	"recycledb/internal/pgclient"
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

// TestWireDescribeAfterAliasSwap runs TestWireAliasesKeepTheirColumns' swap
// as prepared statements with a parameter. pgclient's Exec sends Bind,
// Describe(portal) and Execute, so every result's columns are the
// RowDescription Describe answered; once warm, the engine answers it from
// the optimized-shape entry the statement's template key finds. It must
// name each statement's own columns, in the order its DataRows carry them.
func TestWireDescribeAfterAliasSwap(t *testing.T) {
	const first = `SELECT product AS a, qty AS b FROM big WHERE qty > $1 ORDER BY a, b LIMIT 3`
	const second = `SELECT product AS b, qty AS a FROM big WHERE qty > $1 ORDER BY a, b LIMIT 3`
	for _, mode := range []recycledb.Mode{recycledb.Off, recycledb.History, recycledb.Speculative} {
		t.Run(mode.String(), func(t *testing.T) {
			conn := func() *pgclient.Conn {
				eng := recycledb.New(recycledb.Config{Mode: mode})
				loadBig(eng, 2000)
				addr, _, _ := startServer(t, eng, Config{})
				c := dial(t, addr)
				for name, q := range map[string]string{"first": first, "second": second} {
					if err := c.Prepare(name, q); err != nil {
						t.Fatal(err)
					}
				}
				return c
			}
			want, err := conn().Exec("second", "5")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want.Columns, []string{"b", "a"}) {
				t.Fatalf("a fresh engine describes %s as %v", second, want.Columns)
			}
			c := conn()
			for round := 0; round < 3; round++ {
				if res, err := c.Exec("first", "5"); err != nil || !reflect.DeepEqual(res.Columns, []string{"a", "b"}) {
					t.Fatalf("round %d: %s described as %v (%v)", round, first, res.Columns, err)
				}
				res, err := c.Exec("second", "5")
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res.Columns, want.Columns) || !reflect.DeepEqual(res.Rows, want.Rows) {
					t.Fatalf("round %d: %s after %s: %v %v, a fresh engine returns %v %v",
						round, second, first, res.Columns, res.Rows, want.Columns, want.Rows)
				}
			}
		})
	}
}
