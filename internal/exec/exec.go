// Package exec implements the vector-at-a-time pipelined execution engine.
// Every Select/Project/Join-probe chain and every Aggregate input runs as
// one fused push loop (fused.go) over whatever feeds it — morsels of a
// base-table snapshot or any pull operator. The pull Operator interface
// survives where it is the natural shape: scans and table functions, the
// blocking and stream-shaping operators (Sort, TopN, Limit, Union), the
// recycler's operators — CacheScan replay, WaitReuse, and the Store that tees
// the tuple flow into the recycler cache (§II) — and fragment roots. The
// package also provides the progress meters (after Luo et al.) the paper's
// speculation mechanism uses (§III-D), and the one per-node statistic the
// recycler prices results from: the rows each node emitted (NodeStats).
// The executor counts; it never prices, and nothing here reads the clock.
package exec

import (
	"context"

	"recycledb/internal/catalog"
	"recycledb/internal/vector"
)

// DefaultVectorSize is the number of rows per batch, following the
// X100/Vectorwise convention.
const DefaultVectorSize = 1024

// Ctx carries per-query execution state.
type Ctx struct {
	Cat        *catalog.Catalog
	VectorSize int
	// Context carries the query's cancellation signal and deadline. Every
	// operator checks it at batch boundaries, so a canceled query stops
	// within one vector of work. Nil means no cancellation (background).
	Context context.Context
	// Pool recycles operator scratch batches across queries. Operators
	// draw batches in Open (or lazily in Next) and return them in Close.
	// Nil falls back to a process-wide shared pool.
	Pool *vector.Pool
	// Snaps holds the per-statement table snapshots. The engine
	// pre-captures one snapshot per base table in the plan's lineage
	// before execution, so every scan of a table — however many times it
	// appears in the plan — reads the same committed epoch. Scans of
	// tables not pre-captured snapshot lazily here.
	Snaps map[string]*catalog.Snapshot
	// ScanFrom gives per-table scan start offsets for delta runs: the
	// recycler's append extension executes a cached subplan over only the
	// newly appended rows [ScanFrom[t], watermark).
	ScanFrom map[string]int
	// Parallelism is the statement's worker budget for morsel-driven
	// fragments (see fragment.go). Values <= 1 execute the plan on the
	// calling goroutine; the engine divides its configured budget across
	// concurrently executing statements.
	Parallelism int
	// MorselRows overrides the scan rows per morsel (0 uses
	// 16 x the vector size). Exposed for tests; morsel granularity does
	// not affect results, only scheduling.
	MorselRows int
	// Record is the statement's record, where the executor writes what it
	// counts; nil counts nothing.
	Record *StmtRecord
}

// morselRows returns the scan range claimed per worker dispatch.
func (c *Ctx) morselRows() int {
	if c.MorselRows > 0 {
		return c.MorselRows
	}
	return 16 * c.vecSize()
}

// scanStart returns the first row a scan of table reads under snap: 0, or
// the delta-run offset from ScanFrom clamped to the snapshot.
func (c *Ctx) scanStart(table string, snap *catalog.Snapshot) int {
	return min(c.ScanFrom[table], snap.Rows)
}

// SnapFor returns the statement's snapshot of t, capturing (and memoizing)
// a fresh one if the engine did not pre-capture it.
func (c *Ctx) SnapFor(t *catalog.Table) *catalog.Snapshot {
	if s, ok := c.Snaps[t.Name]; ok {
		return s
	}
	s := t.Snapshot()
	if c.Snaps == nil {
		c.Snaps = make(map[string]*catalog.Snapshot)
	}
	c.Snaps[t.Name] = s
	return s
}

// sharedPool serves executions whose Ctx carries no engine pool (tests,
// direct operator use).
var sharedPool vector.Pool

// pool returns the batch pool for this execution, never nil.
func (c *Ctx) pool() *vector.Pool {
	if c.Pool != nil {
		return c.Pool
	}
	return &sharedPool
}

// NewCtx returns an execution context with the default vector size.
func NewCtx(cat *catalog.Catalog) *Ctx {
	return &Ctx{Cat: cat, VectorSize: DefaultVectorSize}
}

func (c *Ctx) vecSize() int {
	if c.VectorSize <= 0 {
		return DefaultVectorSize
	}
	return c.VectorSize
}

// Interrupted returns the context's error once the query is canceled or
// past its deadline, nil otherwise. Operators call it on entry to Next, so
// pipelines — including the drain loops inside blocking operators, which
// pull batches through child Next calls — abort at batch granularity.
func (c *Ctx) Interrupted() error {
	if c.Context == nil {
		return nil
	}
	return c.Context.Err()
}

// goCtx returns the query's context, never nil.
func (c *Ctx) goCtx() context.Context {
	if c.Context == nil {
		return context.Background() //recycledb:ctx-ok — documented nil-ctx fallback
	}
	return c.Context
}

// Operator is a pipelined physical operator. The contract is:
// Open, then Next until it returns (nil, nil) for end-of-stream, then Close.
// A returned batch is only valid until the following Next call; operators
// that retain batches (Store, blocking operators) must clone them.
type Operator interface {
	// Schema returns the output schema.
	Schema() catalog.Schema
	// Open prepares the operator.
	Open(ctx *Ctx) error
	// Next returns the next batch, or (nil, nil) at end of stream.
	Next(ctx *Ctx) (*vector.Batch, error)
	// Close releases resources. Close is idempotent.
	Close(ctx *Ctx) error
	// Progress estimates the fraction of output produced in [0, 1].
	// Pipelined operators report the progress of their closest scan or
	// blocking left-deep descendant (§III-D).
	Progress() float64
	NodeStats
}

// NodeStats is what execution counted for one plan node (see Build's
// stats): the rows it emitted so far. The recycler prices a subtree from
// these counts alone.
type NodeStats interface {
	RowsOut() int64
}

// base provides the bookkeeping shared by operators.
type base struct {
	schema catalog.Schema
	rows   int64
}

func (b *base) Schema() catalog.Schema { return b.schema }
func (b *base) RowsOut() int64         { return b.rows }

// Run opens op, drains it into a materialized result, and closes it.
func Run(ctx *Ctx, op Operator) (*catalog.Result, error) {
	if err := op.Open(ctx); err != nil {
		// A failed Open may have acquired scratch (its own, or an already
		// opened child's) before erroring; Close is nil-guarded everywhere,
		// so closing the partially opened tree returns it to the pool.
		op.Close(ctx)
		return nil, err
	}
	res := &catalog.Result{Schema: op.Schema()}
	for {
		b, err := op.Next(ctx)
		if err != nil {
			op.Close(ctx)
			return nil, err
		}
		if b == nil {
			break
		}
		if b.Len() > 0 {
			res.Batches = append(res.Batches, b.Clone())
		}
	}
	if err := op.Close(ctx); err != nil {
		return nil, err
	}
	return res, nil
}

// Drain opens op and discards its output (used when only side effects --
// store materializations -- matter, or for timing runs).
func Drain(ctx *Ctx, op Operator) (rows int64, err error) {
	if err := op.Open(ctx); err != nil {
		op.Close(ctx) // release scratch a partially opened tree acquired
		return 0, err
	}
	for {
		b, err := op.Next(ctx)
		if err != nil {
			op.Close(ctx)
			return rows, err
		}
		if b == nil {
			break
		}
		rows += int64(b.Len())
	}
	return rows, op.Close(ctx)
}
