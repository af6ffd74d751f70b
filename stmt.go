package recycledb

import (
	"container/list"
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"recycledb/internal/catalog"
	"recycledb/internal/opt"
	"recycledb/internal/plan"
	"recycledb/internal/sql"
	"recycledb/internal/vector"
)

// Stmt is a prepared statement: a statement compiled once and executed many
// times with different ? or $N bindings — a SELECT plan template, an
// EXPLAIN of one, or a validated DML form (INSERT / DELETE / CREATE TABLE).
// For queries, identical bindings canonicalize to the same recycler-graph
// shape, so recycling keeps matching across executions of a prepared
// statement exactly as it does for repeated ad-hoc queries.
//
// A Stmt survives catalog schema changes: every execution revalidates the
// compiled form against the current schema version and transparently
// recompiles when another session's CREATE TABLE (or a table replacement)
// moved it on. If the statement no longer compiles — a table or column it
// uses is gone or retyped — execution fails with ErrStaleStmt wrapping the
// compile error.
//
// A Stmt is safe for concurrent use: every execution binds into its own
// clone of the compiled template, and revalidation swaps the compiled form
// atomically.
type Stmt struct {
	eng  *Engine
	text string // normalized statement text (the plan-cache key)
	cur  atomic.Pointer[compiledAt]
}

// compiledAt pins a compiled statement to the catalog schema version it
// compiled under.
type compiledAt struct {
	c   *sql.Compiled
	ver int64
}

// Prepare compiles a statement — SELECT, EXPLAIN or DML — into a reusable
// handle. Compiled statements are cached in the engine's bounded LRU keyed
// by normalized text, so preparing (or Querying, or Execing) the same text
// repeatedly skips the front-end. Cached statements are versioned against
// the catalog schema: a schema change (CREATE TABLE, AddTable replacing a
// table, a new function) invalidates them, and the handle recompiles
// transparently at its next execution. Data changes do not invalidate
// compiled plans — they are re-snapshotted at every execution.
func (e *Engine) Prepare(query string) (*Stmt, error) {
	key := sql.Normalize(query)
	c, ver, err := e.compile(query, key)
	if err != nil {
		return nil, err
	}
	s := &Stmt{eng: e, text: key}
	s.cur.Store(&compiledAt{c: c, ver: ver})
	return s, nil
}

// compile fetches the compiled form of query from the plan cache at the
// current schema version, compiling and caching on a miss. key is the
// normalized cache key of query. Parameter-free SELECT templates are
// statically normalized (pushdown, conjunct chain-splitting, projection
// pruning) at compile time.
func (e *Engine) compile(query, key string) (*sql.Compiled, int64, error) {
	ver := e.cat.Version()
	if c, ok := e.plans.get(key, ver); ok {
		return c, ver, nil
	}
	c, err := sql.CompileStatement(query, e.cat)
	if err != nil {
		return nil, 0, err
	}
	if c.Query != nil && c.Query.NumParams == 0 {
		// Static normalization only — the dynamic (recycler-probing) phase
		// runs per execution against the statement's snapshot. Errors are
		// swallowed here: the template stays as compiled and the per-
		// execution optimizer surfaces any real problem.
		if np, err := opt.Normalize(c.Query.Plan.Clone(), e.cat); err == nil {
			c.Query.Plan = np
		}
	}
	e.plans.put(key, c, ver)
	return c, ver, nil
}

// compiled returns the statement's compiled form, revalidated against the
// current catalog schema version. When the schema moved since the last
// execution the statement recompiles through the plan cache; a recompile
// failure surfaces as ErrStaleStmt with the cause in the chain.
func (s *Stmt) compiled() (*sql.Compiled, error) {
	cv := s.cur.Load()
	if cv.ver == s.eng.cat.Version() {
		return cv.c, nil
	}
	c, nver, err := s.eng.compile(s.text, s.text)
	if err != nil {
		return nil, fmt.Errorf("%w: schema changed since Prepare: %w", ErrStaleStmt, err)
	}
	// Racing revalidations compile the same text; any winner is current
	// enough (the version is re-checked on the next execution).
	s.cur.Store(&compiledAt{c: c, ver: nver})
	return c, nil
}

// IsQuery reports whether the statement returns rows — a SELECT or an
// EXPLAIN, streamable via Query — as opposed to DML (runnable via Exec
// only).
func (s *Stmt) IsQuery() bool { return s.cur.Load().c.Query != nil }

// Query executes the statement with the given parameter bindings and
// streams the result. Supported binding types: all Go integer types (exact,
// uint64 above math.MaxInt64 is rejected rather than wrapped), float32
// (widened exactly), float64, string, []byte (as string), bool, time.Time
// (as a date), and Datum. An EXPLAIN streams its plan (Engine.explain)
// instead of running it. DML statements are rejected with ErrNotQuery; use
// Exec.
func (s *Stmt) Query(ctx context.Context, args ...any) (*Rows, error) {
	c, p, err := s.bind(args, false)
	if err != nil {
		return nil, err
	}
	if c.Kind == sql.StmtExplain {
		return s.eng.explain(ctx, p)
	}
	return s.eng.stream(ctx, p, false)
}

// bind is the prologue of every query path: the revalidated compiled form,
// the kind check, and args bound into a fresh clone of the SELECT's plan —
// resolved against the catalog when resolve is set.
func (s *Stmt) bind(args []any, resolve bool) (*sql.Compiled, *plan.Node, error) {
	c, err := s.compiled()
	if err != nil {
		return nil, nil, err
	}
	if c.Query == nil {
		return nil, nil, fmt.Errorf("%w: %v statement", ErrNotQuery, c.Kind)
	}
	ds, err := toDatums(args)
	if err != nil {
		return nil, nil, err
	}
	p, err := c.Query.Bind(ds)
	if err != nil {
		return nil, nil, fmt.Errorf("recycledb: bind: %w", err)
	}
	if resolve {
		if err := p.Resolve(s.eng.cat); err != nil {
			return nil, nil, fmt.Errorf("recycledb: resolve: %w", err)
		}
	}
	return c, p, nil
}

// Exec executes the statement to completion. For SELECTs it materializes
// the full result; for DML it performs the writes and returns a Result with
// an empty schema and RowsAffected set.
func (s *Stmt) Exec(ctx context.Context, args ...any) (*Result, error) {
	c, err := s.compiled()
	if err != nil {
		return nil, err
	}
	if c.Query == nil {
		ds, err := toDatums(args)
		if err != nil {
			return nil, err
		}
		n, err := s.eng.execDML(ctx, c, ds)
		if err != nil {
			return nil, err
		}
		return &Result{res: &catalog.Result{}, RowsAffected: n}, nil
	}
	rows, err := s.Query(ctx, args...)
	if err != nil {
		return nil, err
	}
	return rows.Collect()
}

// ResultSchema returns the result schema the statement would produce for
// the given parameter bindings, by resolving a plan clone against the
// current catalog without executing anything (an EXPLAIN's is its one
// QUERY PLAN column). Serving front ends use it to describe a bound portal
// (RowDescription) before the first Execute. DML statements return
// ErrNotQuery. The binding values only matter for type checking — any
// value of the right type describes the same schema.
func (s *Stmt) ResultSchema(args ...any) (catalog.Schema, error) {
	c, p, err := s.bind(args, true)
	if err != nil {
		return nil, err
	}
	if c.Kind == sql.StmtExplain {
		return explainSchema, nil
	}
	return p.Schema(), nil
}

// NumParams returns the number of parameters the statement binds: its ?
// placeholders, or the largest N of its $N ones.
func (s *Stmt) NumParams() int { return s.cur.Load().c.NumParams() }

// Text returns the normalized statement text.
func (s *Stmt) Text() string { return s.text }

// Verb returns the statement's SQL verb ("SELECT", "INSERT", "DELETE",
// "CREATE", "EXPLAIN"); serving front ends use it to build command tags.
func (s *Stmt) Verb() string { return s.cur.Load().c.Kind.String() }

// toDatums converts Go values to engine datums. Conversions are
// exactness-preserving: integer types convert only when the value fits
// int64 (uint64 above math.MaxInt64 errors instead of wrapping), float32
// widens to the float64 that represents it exactly, and []byte becomes a
// string of the same bytes. Wire front ends hand extended-protocol
// parameters (int32/float32/[]byte/text) straight through here.
func toDatums(args []any) ([]vector.Datum, error) {
	out := make([]vector.Datum, len(args))
	for i, a := range args {
		switch v := a.(type) {
		case vector.Datum:
			out[i] = v
		case int:
			out[i] = vector.NewInt64Datum(int64(v))
		case int8:
			out[i] = vector.NewInt64Datum(int64(v))
		case int16:
			out[i] = vector.NewInt64Datum(int64(v))
		case int32:
			out[i] = vector.NewInt64Datum(int64(v))
		case int64:
			out[i] = vector.NewInt64Datum(v)
		case uint8:
			out[i] = vector.NewInt64Datum(int64(v))
		case uint16:
			out[i] = vector.NewInt64Datum(int64(v))
		case uint32:
			out[i] = vector.NewInt64Datum(int64(v))
		case uint:
			if uint64(v) > math.MaxInt64 {
				return nil, fmt.Errorf("recycledb: parameter %d overflows int64: %d", i+1, v)
			}
			out[i] = vector.NewInt64Datum(int64(v))
		case uint64:
			if v > math.MaxInt64 {
				return nil, fmt.Errorf("recycledb: parameter %d overflows int64: %d", i+1, v)
			}
			out[i] = vector.NewInt64Datum(int64(v))
		case float32:
			// float64(float32) is exact: every float32 value is
			// representable; the engine sees the value the client sent,
			// not a re-rounded decimal.
			out[i] = vector.NewFloat64Datum(float64(v))
		case float64:
			out[i] = vector.NewFloat64Datum(v)
		case string:
			out[i] = vector.NewStringDatum(v)
		case []byte:
			out[i] = vector.NewStringDatum(string(v))
		case bool:
			out[i] = vector.NewBoolDatum(v)
		case time.Time:
			out[i] = vector.NewDateDatum(vector.DaysFromDate(v.Year(), int(v.Month()), v.Day()))
		case nil:
			return nil, fmt.Errorf("recycledb: parameter %d is NULL; the engine has no NULL values", i+1)
		default:
			return nil, fmt.Errorf("recycledb: unsupported parameter %d type %T", i+1, a)
		}
	}
	return out, nil
}

// lru is a mutex-guarded LRU keyed by string whose entries remember the
// catalog schema version they were built under: a lookup under another
// version misses and drops the entry. It backs both the compiled-statement
// cache (normalized SQL text -> *sql.Compiled) and the optimized-shape cache
// (canonical plan signature -> *plan.Node). A zero or negative capacity
// disables caching.
type lru[V any] struct {
	mu  sync.Mutex
	max int
	ll  *list.List               // of *lruEntry[V], front = most recently used; guarded by mu
	m   map[string]*list.Element // guarded by mu
}

type lruEntry[V any] struct {
	key string
	val V
	ver int64
}

func newLRU[V any](max int) *lru[V] {
	return &lru[V]{max: max, ll: list.New(), m: make(map[string]*list.Element)}
}

func (c *lru[V]) get(key string, ver int64) (val V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return val, false
	}
	e := el.Value.(*lruEntry[V])
	if e.ver != ver {
		c.ll.Remove(el)
		delete(c.m, key)
		return val, false
	}
	c.ll.MoveToFront(el)
	return e.val, true
}

func (c *lru[V]) put(key string, val V, ver int64) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		e := el.Value.(*lruEntry[V])
		e.val, e.ver = val, ver
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: val, ver: ver})
	for c.ll.Len() > c.max {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.m, last.Value.(*lruEntry[V]).key)
	}
}

// flush empties the cache.
func (c *lru[V]) flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.m)
}
