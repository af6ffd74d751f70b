package recycledb

import (
	"context"
	"fmt"

	"recycledb/internal/catalog"
	"recycledb/internal/exec"
	"recycledb/internal/sql"
	"recycledb/internal/vector"
)

// ExecResult reports what a statement executed through Engine.Exec did.
type ExecResult struct {
	// RowsAffected is the number of rows inserted or deleted. For a
	// SELECT run through Exec it is the number of result rows drained.
	RowsAffected int64
}

// Exec compiles and runs any statement: INSERT INTO ... VALUES, DELETE
// FROM ... [WHERE], CREATE TABLE, or a SELECT (whose result is drained and
// counted). Statements go through the same normalized-text LRU as Query, so
// repeated DML skips the front end; placeholders bind from args exactly
// like query parameters.
//
// Writes are epoch-atomic: all rows of a multi-row INSERT (or all deletions
// of a DELETE) become visible to other statements at once, and the
// recycler's dependent cached results are invalidated — or, for pure
// appends over selection/projection subtrees, delta-extended — before Exec
// returns. Concurrent statements that already captured their snapshot keep
// reading the pre-write epoch.
func (e *Engine) Exec(ctx context.Context, query string, args ...any) (ExecResult, error) {
	stmt, err := e.Prepare(query)
	if err != nil {
		return ExecResult{}, err
	}
	res, err := stmt.Exec(ctx, args...)
	if err != nil {
		return ExecResult{}, err
	}
	if stmt.IsQuery() {
		return ExecResult{RowsAffected: int64(res.Rows())}, nil
	}
	return ExecResult{RowsAffected: res.RowsAffected}, nil
}

// execDML runs a compiled non-SELECT statement and returns the affected
// row count.
func (e *Engine) execDML(ctx context.Context, c *sql.Compiled, args []vector.Datum) (int64, error) {
	if ctx == nil {
		ctx = context.Background() //recycledb:ctx-ok — documented nil-ctx fallback
	}
	if err := ctx.Err(); err != nil {
		return 0, wrapRunError(err)
	}
	switch c.Kind {
	case sql.StmtInsert:
		name, rows, err := c.BindInsert(e.cat, args)
		if err != nil {
			return 0, err
		}
		t, err := e.cat.Table(name)
		if err != nil {
			return 0, err
		}
		w := t.BeginWrite()
		for _, r := range rows {
			if err := w.AppendRow(r...); err != nil {
				w.Abort()
				return 0, fmt.Errorf("recycledb: insert: %w", err)
			}
		}
		info := w.Commit()
		return info.Appended, nil
	case sql.StmtDelete:
		name, pred, err := c.BindDelete(args)
		if err != nil {
			return 0, err
		}
		t, err := e.cat.Table(name)
		if err != nil {
			return 0, err
		}
		// Matching runs over a statement snapshot; rows another writer
		// deletes in between are deduplicated by the commit, so the
		// reported count is exactly the rows this statement removed.
		ectx := &exec.Ctx{Cat: e.cat, VectorSize: e.vsz, Context: ctx, Pool: e.pool}
		matches, err := exec.MatchingRows(ectx, t, pred)
		if err != nil {
			return 0, wrapRunError(err)
		}
		if len(matches) == 0 {
			return 0, nil
		}
		w := t.BeginWrite()
		w.Delete(matches...)
		info := w.Commit()
		return info.Deleted, nil
	case sql.StmtCreate:
		name, schema := c.CreateTable()
		if err := e.cat.CreateTable(catalog.NewTable(name, schema)); err != nil {
			return 0, fmt.Errorf("recycledb: %w", err)
		}
		return 0, nil
	}
	return 0, fmt.Errorf("recycledb: cannot execute %v statement", c.Kind)
}
