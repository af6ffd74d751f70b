package sql

import (
	"errors"
	"fmt"
)

// ErrSyntax is wrapped by every *Error, so errors.Is classifies a syntax
// error wherever it surfaces.
var ErrSyntax = errors.New("recycledb: parse error")

// Error is a positioned front-end error: Pos is a byte offset into the
// statement text where lexing or parsing failed. Compilation errors that
// are not syntax errors (unknown tables, semantic checks) stay plain.
type Error struct {
	Pos int
	Msg string
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("recycledb: parse error at offset %d: %s", e.Pos, e.Msg)
}

// Unwrap makes errors.Is(err, ErrSyntax) succeed.
func (e *Error) Unwrap() error { return ErrSyntax }

// errAt builds a positioned error.
func errAt(pos int, format string, args ...any) *Error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}
