// Package recycledb is a vectorized, pipelined, in-memory analytical query
// engine with recycling: automatic, workload-adaptive materialization and
// reuse of intermediate and final query results.
//
// It reproduces the system described in
//
//	F. Nagel, P. Boncz, S. D. Viglas:
//	"Recycling in Pipelined Query Evaluation", ICDE 2013.
//
// The engine executes query plans vector-at-a-time (Vectorwise-style). A
// recycler observes every optimized plan, indexes the workload's operators
// in a recycler graph, and uses a cost/reuse/size benefit metric to decide
// which intermediate results are worth the materialization overhead that
// pipelined execution otherwise avoids. Modes:
//
//	OFF  - no recycling (naive baseline)
//	HIST - materialize results seen before (history-based decisions)
//	SPEC - additionally speculate on new results with run-time estimates
//	PA   - additionally apply proactive rewrites (top-N widening, cube
//	       caching with selections / with binning)
//
// # Querying
//
// The primary API is SQL in, streamed batches out, with full context
// support — cancellation and deadlines take effect at batch boundaries in
// every operator:
//
//	eng := recycledb.New(recycledb.Config{Mode: recycledb.Speculative})
//	eng.Catalog().AddTable(tbl)
//	rows, err := eng.Query(ctx,
//	        `SELECT region, sum(amount) AS total
//	         FROM sales WHERE amount > ? GROUP BY region`, 100.0)
//	if err != nil { ... }
//	for b, err := range rows.All(ctx) {
//	        if err != nil { ... }
//	        use(b) // one column-vector batch, valid for this iteration
//	}
//
// Statements are compiled once and cached in a bounded LRU keyed by
// normalized text; Prepare returns an explicit handle for hot statements:
//
//	stmt, err := eng.Prepare(`SELECT count(*) AS n FROM sales WHERE qty > ?`)
//	res, err := stmt.Exec(ctx, 10) // materialized; stmt.Query streams
//
// EXPLAIN <select> is a query too: its rows, one QUERY PLAN line per plan
// node, show the plan the SELECT's next run with the same bindings
// executes, with cost estimates and [cached] markers.
//
// Plans built with the builder DSL (Scan, Select, Aggregate, ...) run
// through the same pipeline via Stream (incremental) or ExecuteContext
// (materialized). Rows.Collect materializes any stream. Failures are
// classified: errors.Is(err, ErrUnknownTable), errors.Is(err, ErrParse)
// (with errors.As to *ParseError for the offset), errors.Is(err,
// ErrCanceled) for context cancellation, and errors.Is(err, ErrNotQuery)
// for DML routed through a streaming entry point.
//
// # Updates
//
// Tables are writable: Engine.Exec runs INSERT INTO ... VALUES, DELETE
// FROM ... [WHERE] and CREATE TABLE (with ? bindings and affected-row
// counts; prepared via Engine.Prepare / Stmt.Exec like queries). Writes
// are epoch-atomic per table, statements read consistent per-statement
// snapshots, and committed epochs invalidate exactly the recycler entries
// that depend on the written table — pure appends extend cached
// selection/projection results in place instead of evicting them. See the
// README's "Updates & consistency" section for the full contract.
//
// # Parallelism
//
// Statements execute morsel-parallel: plan fragments over a large enough
// base-table scan split it into row ranges processed by a worker pool
// (Config.Parallelism, default GOMAXPROCS, divided across statements in
// flight) and merge in scan order, recycler decisions included; float sums
// are the exception (see Config.Parallelism and the README's "Execution").
package recycledb

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"recycledb/internal/catalog"
	"recycledb/internal/core"
	"recycledb/internal/exec"
	"recycledb/internal/opt"
	"recycledb/internal/plan"
	"recycledb/internal/rewrite"
	"recycledb/internal/sql"
	"recycledb/internal/vector"
)

// Mode selects the recycling mode.
type Mode = rewrite.Mode

// Recycling modes (§V of the paper).
const (
	Off         = rewrite.Off
	History     = rewrite.History
	Speculative = rewrite.Speculative
	Proactive   = rewrite.Proactive
)

// ParseMode maps a mode name, short or long and in any letter case, to its
// Mode. It is the one vocabulary of the commands' -mode flags, the shell's
// \mode and the wire's SET recycling_mode; any other string is an error, so
// a typo cannot silently select Off.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(s) {
	case "off":
		return Off, nil
	case "hist", "history":
		return History, nil
	case "spec", "speculative":
		return Speculative, nil
	case "pa", "proactive":
		return Proactive, nil
	}
	return Off, fmt.Errorf("recycledb: unknown recycling mode %q (want off, hist|history, spec|speculative or pa|proactive)", s)
}

// Config tunes the engine.
type Config struct {
	// Mode is the recycling mode (default Off).
	Mode Mode
	// CacheBytes bounds the recycler cache; 0 uses the default
	// (256 MiB), negative means unlimited.
	CacheBytes int64
	// Parallelism is the engine's intra-query worker budget for
	// morsel-driven parallel pipelines. 0 uses GOMAXPROCS; 1 disables
	// intra-query parallelism. The budget is divided across concurrently
	// executing statements (a lone analytical query uses the whole
	// machine; a saturated serving tier degrades gracefully to one worker
	// per query), and plans too small to split run serially regardless.
	// Rows come back in scan order at any setting, but a float64 sum merges
	// worker partials in arrival order, so its last bits can vary, and a
	// query that compares such sums for equality (TPC-H Q15) can return
	// wrong answers at 2 or more; see README "Execution".
	Parallelism int
}

// tuning is the engine's internal configuration: values no command, example
// or benchmark workload sets, so they are not part of Config. Tests that
// need odd values reach newEngine through export_test.go.
type tuning struct {
	// Core configures the recycler; Config.CacheBytes overrides its
	// CacheBytes.
	Core core.Config
	// VectorSize is the batch size; 0 uses the executor's default (1024).
	VectorSize int
	// PlanCacheSize bounds the LRU of compiled statements keyed by
	// normalized SQL text; zero or negative disables plan caching.
	PlanCacheSize int
}

func defaultTuning() tuning {
	return tuning{Core: core.DefaultConfig(), PlanCacheSize: 128}
}

// optShapeCacheSize is the optimized-shape LRU capacity.
const optShapeCacheSize = 512

// optShape is one optimized-shape cache entry (Engine.optShapes).
type optShape struct {
	// plan is the optimized plan, resolved and never mutated: a statement
	// either clones it or, on a root hit, replays its root's cached result
	// over it read-only, and Stmt.ResultSchema copies its schema.
	plan *plan.Node
	// root is the graph node plan's root matched, once a full rewrite of
	// plan has matched it (rewrite.Result.RootMatch). Graph nodes are never
	// removed, so it stays plan's root match for the entry's lifetime.
	root atomic.Pointer[core.Node]
}

// Engine is a recycling query engine over an in-memory catalog. It is safe
// for concurrent use by any number of goroutines: matching runs under a
// read-lock fast path, per-node statistics sit behind leaf mutexes, cache
// misses are detected lock-free and one mutex guards cache membership, and
// concurrent identical queries share one in-flight materialization (one
// computes, the rest stall briefly and replay the handed-off result).
// Returned Rows cursors are single-goroutine; see Rows.
type Engine struct {
	cat   *catalog.Catalog
	rec   *core.Recycler
	plans *lru[*sql.Compiled]
	mode  atomic.Int32
	vsz   int
	// par is the intra-query parallelism budget (Config.Parallelism
	// resolved); active tracks in-flight statements so the budget divides
	// across them.
	par int
	// optShapes memoizes the optimizer's output per opt.ShapeKey of the
	// bound plan (for a prepared statement spliced from its template,
	// sql.Template.ShapeKey), keyed with the schema version it resolved
	// under. The key is the plan's one identity (plan.Node.AppendCanon)
	// with output names and typed literals, so two plans share an entry
	// only if each one's optimized plan returns the other's rows, column
	// names and types. The optimizer is deterministic for a fixed recycler
	// state and its steering converges (an executed shape is found warm and
	// re-picked), so re-optimizing a shape seen moments ago recomputes the
	// same answer. A decision made against an older recycler state stays
	// correct, merely no longer the warmest choice; the cache is flushed
	// with the result cache whose warmth it steered by. Each entry also
	// remembers the graph node its plan's root matched, so a hit whose root
	// result is cached replays it without cloning or matching the plan
	// (see optShape).
	optShapes *lru[*optShape]
	active    atomic.Int32
	// pool recycles operator scratch batches across this engine's queries
	// (vector.Pool documents the ownership rules).
	pool *vector.Pool
}

// New creates an engine with an empty catalog.
func New(cfg Config) *Engine {
	return NewWithCatalog(cfg, catalog.New())
}

// NewWithCatalog creates an engine over an existing catalog, so multiple
// engines (e.g. one per recycling mode in an experiment) can share one
// loaded dataset. Every engine registers a commit listener on the catalog:
// committed write epochs — whoever performs them — invalidate (or
// delta-extend) the engine's dependent cached results before the writer
// lock is released.
func NewWithCatalog(cfg Config, cat *catalog.Catalog) *Engine {
	return newEngine(cfg, defaultTuning(), cat)
}

func newEngine(cfg Config, t tuning, cat *catalog.Catalog) *Engine {
	switch {
	case cfg.CacheBytes < 0:
		t.Core.CacheBytes = 0 // unlimited
	case cfg.CacheBytes > 0:
		t.Core.CacheBytes = cfg.CacheBytes
	}
	par := cfg.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		cat:       cat,
		rec:       core.New(t.Core),
		plans:     newLRU[*sql.Compiled](t.PlanCacheSize),
		vsz:       t.VectorSize,
		par:       par,
		optShapes: newLRU[*optShape](optShapeCacheSize),
		pool:      &vector.Pool{},
	}
	e.mode.Store(int32(cfg.Mode))
	cat.OnCommit(e.onCommit)
	return e
}

// onCommit is the catalog commit listener: one committed write epoch walks
// the recycler cache invalidating only dependents of the written table,
// delta-extending append-only dependents instead of evicting them. It runs
// under the committing table's writer lock, so invalidation is ordered
// before the table's next epoch.
func (e *Engine) onCommit(t *catalog.Table, info catalog.CommitInfo) {
	e.rec.InvalidateTable(info.Table, info.AppendOnly, info.Ver, info.Rows, e.extendEntry)
}

// extendEntry computes a cached entry's append delta: the entry's subplan
// re-runs over only the newly appended rows [lo, hi) of table, and the
// resulting batches are appended to the cached result by the recycler.
func (e *Engine) extendEntry(entry *core.Entry, table string, lo, hi int64) ([]*vector.Batch, int64, int64, bool) {
	if entry.Plan == nil {
		return nil, 0, 0, false
	}
	ectx := &exec.Ctx{
		Cat:        e.cat,
		VectorSize: e.vsz,
		Pool:       e.pool,
		ScanFrom:   map[string]int{table: int(lo)},
	}
	op, err := exec.Build(ectx, entry.Plan, nil, nil)
	if err != nil {
		return nil, 0, 0, false
	}
	res, err := exec.Run(ectx, op)
	if err != nil {
		return nil, 0, 0, false
	}
	return res.Batches, int64(res.Rows()), res.Bytes(), true
}

// Catalog returns the engine's catalog for loading tables and functions.
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// Workers returns the engine's intra-query parallelism budget
// (Config.Parallelism resolved to its default if unset). The budget
// divides across in-flight statements; serving front ends size admission
// control relative to it.
func (e *Engine) Workers() int { return e.par }

// ActiveStatements returns the number of statements currently in flight
// (streams open or DML executing). Serving front ends use it to verify
// that abandoned streams drained their statement slots.
func (e *Engine) ActiveStatements() int { return int(e.active.Load()) }

// Recycler exposes the recycler for introspection (statistics, cache state).
func (e *Engine) Recycler() *core.Recycler { return e.rec }

// Mode returns the active recycling mode.
func (e *Engine) Mode() Mode { return Mode(e.mode.Load()) }

// SetMode switches the recycling mode; in-flight queries finish under the
// mode they started with.
func (e *Engine) SetMode(m Mode) { e.mode.Store(int32(m)) }

// liveVer reports a table's current data version for snapshot-tag
// validation of tables outside a statement's capture.
func (e *Engine) liveVer(table string) (int64, bool) {
	tbl, err := e.cat.Table(table)
	if err != nil {
		return 0, false
	}
	return tbl.DataVersion(), true
}

// epoch is the data epoch one statement runs at: a snapshot of every base
// table in its plan's lineage, with the version and row-count tags cache
// validation compares (and the cost model reads). A tags-only epoch has nil
// snaps: it can validate cached results but nothing may scan at it.
type epoch struct {
	snaps     map[string]*catalog.Snapshot
	vers      map[string]core.TableSnap
	globalVer int64
}

// captureEpoch captures the tables in p's lineage. With snap, each table is
// snapshotted and its version and row count come from that one Snapshot
// call, so a concurrent commit can never yield a pair from two epochs.
// Without, it reads only the tags, each pair under its table's read lock
// (catalog.Table.Tag), and snapshots no column: all a root hit's probe
// needs.
func (e *Engine) captureEpoch(p *plan.Node, snap bool) epoch {
	ep := epoch{vers: make(map[string]core.TableSnap, len(p.Lineage()))}
	if snap {
		ep.snaps = make(map[string]*catalog.Snapshot, len(p.Lineage()))
	}
	for _, name := range p.Lineage() {
		if name == plan.LineageAll {
			continue
		}
		tbl, err := e.cat.Table(name)
		if err != nil {
			continue // resolve already vetted; races surface at build
		}
		if !snap {
			ver, rows := tbl.Tag()
			ep.vers[name] = core.TableSnap{Ver: ver, Rows: int64(rows)}
			continue
		}
		s := tbl.Snapshot()
		ep.snaps[name] = s
		ep.vers[name] = core.TableSnap{Ver: s.Ver, Rows: int64(s.Rows)}
	}
	ep.globalVer = e.cat.DataVersion()
	return ep
}

// optContext assembles the optimizer's per-statement environment: the
// recycler to probe, the statement's snapshot row counts for the cost
// model, and a validator that accepts exactly the cached entries the
// rewriter's substitution rule would accept under the same snapshot.
func (e *Engine) optContext(ep epoch) *opt.Context {
	rows := make(map[string]int64, len(ep.vers))
	for name, ts := range ep.vers {
		rows[name] = ts.Rows
	}
	return &opt.Context{
		Cat: e.cat,
		Rec: e.rec,
		Validate: func(en *core.Entry) bool {
			ok, _ := core.EntrySnapValid(en, ep.vers, ep.globalVer, e.liveVer)
			return ok
		},
		TableRows: rows,
	}
}

// FlushCache evicts all cached results (simulates update invalidation, as in
// the paper's Fig. 6 protocol).
func (e *Engine) FlushCache() {
	e.rec.FlushCache()
	// Cached optimizer decisions steered toward the warmth just flushed.
	e.optShapes.flush()
}

// QueryStats is the public view of one statement's record (Rows.Stats):
// what the recycler planned and did for the query, and its times.
type QueryStats struct {
	// Total is end-to-end time; Matching the recycler-graph match/insert
	// time (Fig. 10), or on a root hit the time to probe the root's cached
	// result; Execution the plan run time.
	Total, Matching, Execution time.Duration
	// Reused counts exact cached-result substitutions; SubsumptionReused
	// derived ones; Stores history-mode stores; SpecStores speculative
	// stores; Waits stalls on concurrent materializations; Materialized
	// is the number of results actually admitted to the cache.
	Reused, SubsumptionReused, Stores, SpecStores, Waits, Materialized int
	// ProactiveApplied reports that a §IV-B rewrite was executed.
	ProactiveApplied bool
	// Rows is the rows returned so far: the result cardinality once the
	// stream has completed.
	Rows int
}

// Result is a fully materialized query result plus recycler statistics.
// DML executed through Stmt.Exec yields a Result with an empty schema and
// RowsAffected set.
type Result struct {
	Schema  catalog.Schema
	Batches []*Batch
	Stats   QueryStats
	// RowsAffected is the number of rows a DML statement inserted or
	// deleted (zero for queries and CREATE TABLE).
	RowsAffected int64
	res          *catalog.Result
}

// Rows returns the total number of result rows.
func (r *Result) Rows() int { return r.res.Rows() }

// Raw returns the underlying materialized result.
func (r *Result) Raw() *catalog.Result { return r.res }

// Query compiles sql (through the plan cache), binds args to its ? or $N
// placeholders, and streams the result. The context governs the whole
// query: every operator observes it at batch boundaries, and stalls on
// concurrent materializations abort with it.
func (e *Engine) Query(ctx context.Context, sql string, args ...any) (*Rows, error) {
	stmt, err := e.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return stmt.Query(ctx, args...)
}

// QueryCollect is Query followed by Collect: the full result, materialized.
func (e *Engine) QueryCollect(ctx context.Context, sql string, args ...any) (*Result, error) {
	rows, err := e.Query(ctx, sql, args...)
	if err != nil {
		return nil, err
	}
	return rows.Collect()
}

// Stream runs a built query plan through the full recycling pipeline —
// proactive rewriting, graph matching/insertion, reuse substitution, store
// injection — and returns the executing pipeline as an incremental stream.
// The recycler graph is annotated with counted costs when the stream
// completes. q is not mutated.
func (e *Engine) Stream(ctx context.Context, q *plan.Node) (*Rows, error) {
	return e.stream(ctx, opt.ShapeKey(q), func() (*plan.Node, error) { return q.Clone(), nil })
}

// ExecuteContext runs a built query plan to completion under ctx and
// returns the materialized result.
func (e *Engine) ExecuteContext(ctx context.Context, q *plan.Node) (*Result, error) {
	rows, err := e.Stream(ctx, q)
	if err != nil {
		return nil, err
	}
	return rows.Collect()
}

// beginStatement reserves a statement slot and returns its intra-query
// worker budget: the engine's parallelism divided by the statements in
// flight, floored at one. A lone query gets the whole budget; under heavy
// concurrency every query runs serially and throughput scaling comes from
// inter-query concurrency alone.
func (e *Engine) beginStatement() int {
	n := e.active.Add(1)
	eff := e.par / int(n)
	if eff < 1 {
		eff = 1
	}
	return eff
}

// endStatement releases a statement slot.
func (e *Engine) endStatement() { e.active.Add(-1) }

// shape is the planning prologue of every statement: it returns the
// resolved, optimized plan a statement runs, its entry in the
// optimized-shape cache, and the data epoch it runs at. key is the
// statement's shape key (opt.ShapeKey of its bound plan, or the same text
// spliced from its template, sql.Template.ShapeKey); bind returns the bound
// plan, which shape then owns, and runs only on a cache miss. When the entry
// knows its root match, shape returns it as root, and q is then the entry's
// own plan, which callers only read (rewrite.Rewrite clones it unless the
// root's cached result replays); otherwise root is nil and q is the
// statement's own. With tagsOnly, a known root comes with a tags-only epoch
// (captureEpoch without snap), for a probe that captures the full epoch
// only if it declines.
func (e *Engine) shape(key string, bind func() (*plan.Node, error), tagsOnly bool) (q *plan.Node, root *core.Node, sh *optShape, ep epoch, err error) {
	for {
		// optVer is read before the lookup and Resolve, and again once the
		// epoch is captured: a schema change in between (a table replaced)
		// may have paired the plan with another table's snapshot, so the
		// statement plans again. A concurrent change can thus only store
		// an entry under a too-old version (evicted on next lookup), never
		// a too-new one.
		optVer := e.cat.Version()
		// Optimized-shape fast path (see Engine.optShapes): replay a prior
		// optimizer decision. The cached plan carries its resolution — the
		// schema version it resolved under is part of the lookup — so a
		// hit skips the bind-resolve-optimize sequence entirely.
		if hit, ok := e.optShapes.get(key, optVer); ok {
			q, root = hit.plan, hit.root.Load()
			if root == nil {
				q = q.Clone()
			}
			ep = e.captureEpoch(q, root == nil || !tagsOnly)
			if e.cat.Version() == optVer {
				return q, root, hit, ep, nil
			}
			continue
		}
		p, err := bind()
		if err != nil {
			return nil, nil, nil, epoch{}, err
		}
		if err := p.Resolve(e.cat); err != nil {
			return nil, nil, nil, epoch{}, fmt.Errorf("recycledb: resolve: %w", err)
		}
		// Capture the statement's data epoch before rewriting. Cache
		// substitution validates entries against these versions and the
		// scans read exactly these snapshots, so a statement observes one
		// consistent epoch from front to back even while writers commit.
		ep = e.captureEpoch(p, true)
		// The optimizer runs between compilation and the recycling
		// rewrite: pushdown/pruning normalization, then the
		// recycler-probing dynamic phase that orders conjunct chains and
		// join groups toward subtrees already warm under this statement's
		// snapshot. The rewriter then performs the actual substitutions on
		// the chosen shape. The decision is memoized under key; later
		// executions of this shape replay it from the cache.
		p, err = opt.Optimize(p, e.optContext(ep))
		if err != nil {
			return nil, nil, nil, epoch{}, fmt.Errorf("recycledb: optimize: %w", err)
		}
		// The optimizer re-resolves what it rebuilds, so the check that
		// the plan's tables are the snapshots' waits until it is done.
		if e.cat.Version() != optVer {
			continue
		}
		sh = &optShape{plan: p.Clone()}
		e.optShapes.put(key, sh, optVer)
		return p, nil, sh, ep, nil
	}
}

// resultSchema is the schema of the statement with shape key key: the
// cached optimized plan's, or on a miss that of bind's plan resolved
// against the catalog. The caller owns the returned slice.
func (e *Engine) resultSchema(key string, bind func() (*plan.Node, error)) (catalog.Schema, error) {
	if hit, ok := e.optShapes.get(key, e.cat.Version()); ok {
		return slices.Clone(hit.plan.Schema()), nil
	}
	p, err := bind()
	if err != nil {
		return nil, err
	}
	if err := p.Resolve(e.cat); err != nil {
		return nil, fmt.Errorf("recycledb: resolve: %w", err)
	}
	return p.Schema(), nil
}

// explainSchema is an EXPLAIN's result: one line of the plan per row.
var explainSchema = catalog.Schema{{Name: "QUERY PLAN", Typ: vector.String}}

// explain answers EXPLAIN for the statement with shape key key and bind
// (Engine.shape's). It renders the plan that the next execution with the
// same bindings runs, one node per line, with per-node estimated rows and
// cost, [cached]/[inflight]/[seen] markers on subtrees the recycler holds
// under the current data versions, and the work a node's last run counted.
// The lines replay from memory: the stream takes no statement slot,
// registers nothing with the recycler and annotates no graph.
func (e *Engine) explain(ctx context.Context, key string, bind func() (*plan.Node, error)) (*Rows, error) {
	start := time.Now()
	p, _, _, ep, err := e.shape(key, bind, false)
	if err != nil {
		return nil, err
	}
	text := opt.Render(p, opt.Annotate(p, e.optContext(ep)))
	lines := &vector.Vector{Typ: vector.String, Str: strings.Split(strings.TrimSuffix(text, "\n"), "\n")}
	op := exec.NewCacheScan(explainSchema, []*vector.Batch{{Vecs: []*vector.Vector{lines}}}, []int{0}, nil)
	ectx := &exec.Ctx{Cat: e.cat, Context: ctx, Record: new(exec.StmtRecord)}
	if err := op.Open(ectx); err != nil {
		return nil, err
	}
	return &Rows{eng: e, qctx: ctx, schema: explainSchema, ectx: ectx, op: op,
		start: start, execStart: time.Now(), released: true}, nil
}

// stream plans (Engine.shape, with key and bind), rewrites, builds, and
// opens the pipeline, returning a Rows positioned before the first batch.
func (e *Engine) stream(ctx context.Context, key string, bind func() (*plan.Node, error)) (rows *Rows, err error) {
	if ctx == nil {
		ctx = context.Background() //recycledb:ctx-ok — documented nil-ctx fallback
	}
	par := e.beginStatement()
	defer func() {
		if err != nil {
			e.endStatement()
		}
	}()
	start := time.Now()
	mode := e.Mode()
	// Only History and Speculative replay a known root without rewriting
	// (rewrite.Rewriter.ReuseRoot), so only they probe at tags alone.
	p, root, sh, ep, err := e.shape(key, bind, mode == History || mode == Speculative)
	if err != nil {
		return nil, err
	}
	rw := rewrite.NewRewriter(e.rec, e.cat, mode)
	var rres *rewrite.Result
	if ep.snaps == nil {
		// A root hit reads no table, so its probe needs only the tags. A
		// probe that declines counted nothing: the statement plans afresh
		// at a full epoch and runs the full path from it, so nothing it
		// plans is validated at versions other than those its scans read.
		rw.SnapVers, rw.GlobalVer = ep.vers, ep.globalVer
		if rres = rw.ReuseRoot(p, root); rres == nil {
			if p, root, sh, ep, err = e.shape(key, bind, false); err != nil {
				return nil, err
			}
		}
	}
	if rres == nil {
		rw.SnapVers, rw.GlobalVer = ep.vers, ep.globalVer
		if rres, err = rw.Rewrite(p, root); err != nil {
			return nil, fmt.Errorf("recycledb: rewrite: %w", err)
		}
	}
	if g := rres.RootMatch(); g != nil && sh.root.Load() != g {
		sh.root.Store(g)
	}
	if rres.Match != nil {
		rres.Record.Matching = rres.Match.Cost
	}
	ectx := &exec.Ctx{Cat: e.cat, VectorSize: e.vsz, Context: ctx, Pool: e.pool, Snaps: ep.snaps,
		Parallelism: par, Record: &rres.Record}
	op, err := exec.Build(ectx, rres.Exec, rres.Decor, rres.Stats)
	if err != nil {
		rw.Abort(rres)
		return nil, fmt.Errorf("recycledb: build: %w", err)
	}
	r := &Rows{
		eng:       e,
		qctx:      ctx,
		schema:    op.Schema(),
		ectx:      ectx,
		op:        op,
		rw:        rw,
		rres:      rres,
		start:     start,
		execStart: time.Now(),
	}
	if err := op.Open(ectx); err != nil {
		op.Close(ectx)
		return nil, wrapRunError(err)
	}
	return r, nil
}
