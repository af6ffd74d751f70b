package harness

import (
	"fmt"
	"math/rand"

	"recycledb/internal/catalog"
	"recycledb/internal/vector"
	"recycledb/internal/workload"
)

// Churn helpers: write generators the DML golden matrices and the race
// suites interleave with queries, so every recycling mode meets both kinds of
// epoch (appends, which cached results can be delta-extended across, and
// deletes, which invalidate the table's dependents).

// SyntheticAppender returns a WriteFunc that appends n plausible rows per
// call to the named table through the epoch write path, triggering the
// engines' commit-time invalidation like any other writer. Values are
// drawn per column type from ranges wide enough to land inside typical
// predicate windows.
func SyntheticAppender(cat *catalog.Catalog, table string, n int) workload.WriteFunc {
	base := vector.MustParseDate("1995-01-01")
	return func(client int, rng *rand.Rand) error {
		t, err := cat.Table(table)
		if err != nil {
			return err
		}
		w := t.BeginWrite()
		ap := w.Appender()
		for r := 0; r < n; r++ {
			for c, col := range t.Schema {
				switch col.Typ {
				case vector.Int64:
					ap.Int64(c, rng.Int63n(100000))
				case vector.Date:
					ap.Int64(c, base+int64(rng.Intn(2000)))
				case vector.Float64:
					ap.Float64(c, rng.Float64()*10000)
				case vector.String:
					ap.String(c, fmt.Sprintf("churn-%d", rng.Intn(1000)))
				case vector.Bool:
					ap.Bool(c, rng.Intn(2) == 0)
				}
			}
			ap.FinishRow()
		}
		w.Commit()
		return nil
	}
}

// SyntheticDeleter returns a WriteFunc that deletes up to n random live
// rows of the named table per call (a non-append epoch, which forces full
// invalidation of the table's dependents).
func SyntheticDeleter(cat *catalog.Catalog, table string, n int) workload.WriteFunc {
	return func(client int, rng *rand.Rand) error {
		t, err := cat.Table(table)
		if err != nil {
			return err
		}
		snap := t.Snapshot()
		if snap.Rows == 0 {
			return nil
		}
		w := t.BeginWrite()
		for i := 0; i < n; i++ {
			w.Delete(rng.Intn(snap.Rows))
		}
		w.Commit()
		return nil
	}
}
