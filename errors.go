package recycledb

import (
	"context"
	"errors"
	"fmt"

	"recycledb/internal/catalog"
	"recycledb/internal/sql"
)

// Typed errors for the query API. All are matched with errors.Is / errors.As
// through whatever wrapping the pipeline adds.
var (
	// ErrUnknownTable reports a query against a table (or table function)
	// the catalog does not know.
	ErrUnknownTable = catalog.ErrUnknownTable
	// ErrParse reports a SQL syntax error; errors.As against *ParseError
	// recovers the offset.
	ErrParse = sql.ErrSyntax
	// ErrCanceled reports a query stopped by context cancellation or
	// deadline; the context's own error remains in the chain, so
	// errors.Is(err, context.Canceled) keeps working too.
	ErrCanceled = errors.New("recycledb: query canceled")
	// ErrNotQuery reports a DML statement used where a streaming SELECT
	// is required (Stmt.Query / Engine.Query on INSERT, DELETE, CREATE
	// TABLE); use Engine.Exec or Stmt.Exec instead.
	ErrNotQuery = errors.New("recycledb: statement returns no rows")
	// ErrStaleStmt reports a prepared statement whose compiled form
	// predates a catalog schema change (another session's CREATE TABLE or
	// a table replacement) and no longer compiles against the current
	// schema. Statements that still compile are recompiled transparently;
	// ErrStaleStmt surfaces only when the schema moved in a way that
	// invalidates the statement itself (a table or column it uses is
	// gone or retyped). The underlying compile error stays in the chain.
	ErrStaleStmt = errors.New("recycledb: prepared statement is stale")
)

// ParseError is a SQL syntax error with the byte offset of the offending
// token in the statement text. It wraps ErrParse.
type ParseError = sql.Error

// wrapRunError classifies execution errors: context cancellation and
// deadline expiry become ErrCanceled (keeping the cause in the chain),
// everything else is reported as a run failure.
func wrapRunError(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return fmt.Errorf("recycledb: run: %w", err)
}
