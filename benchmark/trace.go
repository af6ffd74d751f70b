package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"recycledb"
	"recycledb/internal/catalog"
	"recycledb/internal/exec"
	"recycledb/internal/opt"
	"recycledb/internal/sql"
	"recycledb/internal/vector"
)

// A span is one timed call into a layer, recorded from outside the engine:
// the benchmark wraps the public functions it calls. Spans of one op share
// its index; Parent is the id of the enclosing span, -1 for the op itself.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once, at exit.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// add records a finished span and returns its id.
func (t *tracer) add(parent, op int, layer, name string, start, end int64) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Layer: layer, Name: name, Start: start, End: end})
	return id
}

// begin opens a span ending at the matching end call.
func (t *tracer) begin(parent, op int, layer, name string) int {
	return t.add(parent, op, layer, name, t.now(), 0)
}

func (t *tracer) end(id int) { t.spans[id].End = t.now() }

// selfTimes returns, per span id, the span's duration minus the part of it
// that its direct children cover. Children may overlap each other or stick
// out of the parent; covered time counts once and only inside the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerMeans sums self time by "layer.name" and divides by the op count:
// mean self time per op, in µs.
func layerMeans(spans []span, ops int) map[string]float64 {
	out := make(map[string]float64)
	if ops == 0 {
		return out
	}
	for i, ns := range selfTimes(spans) {
		out[spans[i].Layer+"."+spans[i].Name] += float64(ns) / 1e3 / float64(ops)
	}
	return out
}

// doTraced executes o through the staged public API with a span around each
// call: Engine.Prepare → Stmt.Query / Engine.Stream → the Rows.Next loop →
// the final Next. The matching time the engine reports for the statement is
// recorded as a child of the open span, so open's self time excludes it.
func (c *embeddedConn) doTraced(tr *tracer, idx int, o *op) (reply, error) {
	ctx := context.Background()
	root := tr.begin(-1, idx, "op", o.key)
	defer tr.end(root)
	var stmt *recycledb.Stmt
	if o.plan == nil {
		sp := tr.begin(root, idx, "sql", "prepare")
		var err error
		stmt, err = c.eng.Prepare(o.stmt.embed)
		tr.end(sp)
		if err != nil {
			return reply{}, err
		}
	}
	if o.kind != opRead {
		sp := tr.begin(root, idx, "catalog", "commit")
		res, err := stmt.Exec(ctx, o.args...)
		tr.end(sp)
		if err != nil {
			return reply{}, err
		}
		if res.RowsAffected != o.rows {
			return reply{}, errAffected
		}
		return reply{}, nil
	}
	open := tr.begin(root, idx, "engine", "open")
	var rows *recycledb.Rows
	var err error
	if o.plan != nil {
		rows, err = c.eng.Stream(ctx, o.plan)
	} else {
		rows, err = stmt.Query(ctx, o.args...)
	}
	tr.end(open)
	if err != nil {
		return reply{}, err
	}
	openStart := tr.spans[open].Start
	tr.add(open, idx, "core", "match", openStart, openStart+rows.Stats().Matching.Nanoseconds())
	r := reply{sig: newSig()}
	first := tr.now()
	for {
		t := tr.now()
		b, err := rows.Next(ctx)
		if err != nil {
			return reply{}, err
		}
		if b == nil {
			// The call that found the stream empty closed the pipeline,
			// annotated the graph and committed the stores.
			tr.add(root, idx, "exec", "run", first, t)
			tr.add(root, idx, "engine", "finish", t, tr.now())
			break
		}
		r.sig.addBatch(b)
	}
	r.stats = rows.Stats()
	return r, nil
}

// ── replays ─────────────────────────────────────────────────────────────

// replayMaxOps bounds the trace file; the first replay pass also stops after
// a quarter of the timed window's length, which fixes K.
const replayMaxOps = 5000

type replayResult struct {
	ops      int
	meanUS   float64 // all ops
	rows     int64
	reuseOps int
	reads    int
	matchUS  []float64 // per read op, in order
}

// replay runs ops one after another on the first connection of e. With a
// tracer the ops go through doTraced. budget > 0 stops early.
func replay(e *env, ops []op, tr *tracer, budget time.Duration) (replayResult, error) {
	var res replayResult
	c := e.conns[0]
	start := time.Now()
	var total time.Duration
	for i := range ops {
		if budget > 0 && time.Since(start) > budget {
			break
		}
		t0 := time.Now()
		var r reply
		var err error
		if tr != nil {
			r, err = c.(*embeddedConn).doTraced(tr, i, &ops[i])
		} else {
			r, err = c.do(&ops[i])
		}
		total += time.Since(t0)
		if err != nil {
			return res, fmt.Errorf("replay %s: %w", ops[i].key, err)
		}
		res.ops++
		if ops[i].kind == opRead {
			res.reads++
			res.rows += r.sig.rows
			res.matchUS = append(res.matchUS, float64(r.stats.Matching.Nanoseconds())/1e3)
			if r.stats.Reused+r.stats.SubsumptionReused > 0 {
				res.reuseOps++
			}
		}
	}
	if res.ops > 0 {
		res.meanUS = float64(total.Nanoseconds()) / 1e3 / float64(res.ops)
	}
	return res, nil
}

// tracedRun produces the timing side of the per-layer metrics from the first
// K ops of client 0. Each pass gets a freshly set-up system, so all see the
// same cache state: for wire workloads the K ops over one pgwire connection,
// then untraced through the embedded API (the difference is what the server
// adds), then traced through the staged embedded API (the difference from
// the untraced pass is the tracing overhead).
func tracedRun(w *workload, seed int64, window time.Duration, outDir string, m map[string]float64) error {
	src := w.gen(seed, 0)
	ops := make([]op, replayMaxOps)
	for i := range ops {
		ops[i] = src.next()
	}
	pass := func(wire bool, tr *tracer, n int, budget time.Duration) (replayResult, error) {
		e, err := setUp(w, seed, wire, 1)
		if err != nil {
			return replayResult{}, err
		}
		defer e.close()
		return replay(e, ops[:n], tr, budget)
	}
	// The slowest transport runs first, under the budget, and fixes K.
	first, err := pass(w.wire, nil, len(ops), window/4)
	if err != nil {
		return err
	}
	k := first.ops
	plain := first
	if w.wire {
		if plain, err = pass(false, nil, k, 0); err != nil {
			return err
		}
		m["server.overhead_us"] = first.meanUS - plain.meanUS
	}
	tr := newTracer(6 * k)
	traced, err := pass(false, tr, k, 0)
	if err != nil {
		return err
	}

	means := layerMeans(tr.spans, k)
	m["sql.prepare_us"] = means["sql.prepare"]
	m["engine.open_us"] = means["engine.open"]
	m["core.match_us"] = means["core.match"]
	m["exec.run_us"] = means["exec.run"]
	m["engine.finish_us"] = means["engine.finish"]
	m["trace.op_us"] = traced.meanUS
	if writes := k - traced.reads; writes > 0 {
		m["catalog.commit_us"] = means["catalog.commit"] * float64(k) / float64(writes)
	}
	if traced.reads > 0 {
		m["exec.rows_per_op"] = float64(traced.rows) / float64(traced.reads)
		m["core.root_hit_rate"] = float64(traced.reuseOps) / float64(traced.reads)
	}
	// Fig. 10: matching cost as the graph grows. The graph only grows, so
	// quarters of the op sequence are quartiles of graph size.
	for q := 0; q < 4; q++ {
		lo, hi := q*len(traced.matchUS)/4, (q+1)*len(traced.matchUS)/4
		m[fmt.Sprintf("core.match_us_q%d", q+1)] = mean(traced.matchUS[lo:hi])
	}
	m["trace.ops"] = float64(k)
	if plain.meanUS > 0 {
		m["trace.overhead_pct"] = 100 * (traced.meanUS - plain.meanUS) / plain.meanUS
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{w.name, seed, tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace-"+w.name+".json"), buf, 0o644)
}

// ── layer probes ────────────────────────────────────────────────────────

const probeOps = 24

// probeLayers calls single layers directly, cold and outside any engine, on
// the first distinct read ops of the workload: the statement compiler, the
// optimizer with no recycler to probe, and the executor on the plan as
// written. It also measures Batch.Clone throughput on lineitem-shaped
// batches, the cost the recycler's CopyBytesPerSec constant models.
func probeLayers(w *workload, seed int64, cat *catalog.Catalog, m map[string]float64) error {
	src := w.gen(seed, 0)
	seen := make(map[string]bool)
	texts := make(map[*stmtDef]bool)
	var compileUS, optUS, coldUS []float64
	for tries := 0; len(seen) < probeOps && tries < 50*probeOps; tries++ {
		o := src.next()
		if o.kind != opRead || seen[o.key] {
			continue
		}
		seen[o.key] = true
		p := o.plan
		if p == nil {
			t0 := time.Now()
			c, err := sql.CompileStatement(o.stmt.embed, cat)
			if err != nil {
				return fmt.Errorf("probe compile %s: %w", o.stmt.name, err)
			}
			if !texts[o.stmt] {
				texts[o.stmt] = true
				compileUS = append(compileUS, us(time.Since(t0)))
			}
			if p, err = c.Query.Bind(datums(o.args)); err != nil {
				return fmt.Errorf("probe bind %s: %w", o.key, err)
			}
		}
		cold := p.Clone()
		if err := cold.Resolve(cat); err != nil {
			return fmt.Errorf("probe resolve %s: %w", o.key, err)
		}
		t0 := time.Now()
		if _, err := opt.Optimize(p.Clone(), &opt.Context{Cat: cat}); err != nil {
			return fmt.Errorf("probe optimize %s: %w", o.key, err)
		}
		optUS = append(optUS, us(time.Since(t0)))

		ectx := &exec.Ctx{Cat: cat, Parallelism: runtime.GOMAXPROCS(0)}
		t0 = time.Now()
		root, err := exec.Build(ectx, cold, nil, nil)
		if err == nil {
			_, err = exec.Drain(ectx, root)
		}
		if err != nil {
			return fmt.Errorf("probe exec %s: %w", o.key, err)
		}
		coldUS = append(coldUS, us(time.Since(t0)))
	}
	m["sql.compile_us"] = mean(compileUS)
	m["opt.optimize_us"] = mean(optUS)
	m["exec.cold_us"] = mean(coldUS)

	scan := recycledb.Scan("lineitem", "l_orderkey", "l_partkey", "l_suppkey", "l_linenumber",
		"l_quantity", "l_extendedprice", "l_discount", "l_shipdate")
	if err := scan.Resolve(cat); err != nil {
		return err
	}
	ectx := &exec.Ctx{Cat: cat}
	root, err := exec.Build(ectx, scan, nil, nil)
	if err != nil {
		return err
	}
	res, err := exec.Run(ectx, root)
	if err != nil {
		return err
	}
	var cloned int64
	t0 := time.Now()
	for time.Since(t0) < 200*time.Millisecond {
		for _, b := range res.Batches {
			cloneSink = b.Clone()
			cloned += cloneSink.Bytes()
		}
	}
	m["vector.clone_mb_s"] = float64(cloned) / (1 << 20) / time.Since(t0).Seconds()
	return nil
}

// cloneSink keeps the compiler from dropping the measured Clone calls.
var cloneSink *vector.Batch

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// datums converts an op's bindings the way the engine's binder would.
func datums(args []any) []vector.Datum {
	out := make([]vector.Datum, len(args))
	for i, a := range args {
		switch v := a.(type) {
		case int64:
			out[i] = vector.NewInt64Datum(v)
		case float64:
			out[i] = vector.NewFloat64Datum(v)
		case string:
			out[i] = vector.NewStringDatum(v)
		case vector.Datum:
			out[i] = v
		}
	}
	return out
}
