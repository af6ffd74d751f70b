package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"recycledb"
	"recycledb/internal/catalog"
	recycler "recycledb/internal/core"
	"recycledb/internal/pgclient"
	"recycledb/internal/server"
	"recycledb/internal/skyserver"
	"recycledb/internal/tpch"
	"recycledb/internal/vector"
)

// ── result signatures ───────────────────────────────────────────────────

// sig condenses one result for comparison: the row count, an order-aware
// hash of every exactly comparable value, and position-weighted sums of the
// computed float columns, which differ in their last bits between serial
// and parallel evaluation and so compare with a tolerance.
type sig struct {
	rows       int64
	hash       uint64
	fsum, fabs float64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func newSig() sig { return sig{hash: fnvOffset} }

func (s *sig) hashBytes(b string) {
	h := s.hash
	for i := 0; i < len(b); i++ {
		h = (h ^ uint64(b[i])) * fnvPrime
	}
	s.hash = (h ^ 0xff) * fnvPrime // field separator
}

func (s *sig) hashWord(x uint64) {
	h := s.hash
	for i := 0; i < 8; i++ {
		h = (h ^ (x & 0xff)) * fnvPrime
		x >>= 8
	}
	s.hash = h
}

func (s *sig) addFloat(f float64) {
	w := float64(1 + s.rows%7)
	s.fsum += f * w
	s.fabs += math.Abs(f) * w
}

func (s sig) equal(o sig) bool {
	if s.rows != o.rows || s.hash != o.hash {
		return false
	}
	d := math.Abs(s.fsum - o.fsum)
	return d <= 1e-6 || d <= 1e-9*math.Max(s.fabs, o.fabs)
}

func (s *sig) addBatch(b *recycledb.Batch) {
	n := b.Len()
	for i := 0; i < n; i++ {
		r := b.RowIdx(i)
		for _, v := range b.Vecs {
			switch v.Typ {
			case vector.Int64, vector.Date:
				s.hashWord(uint64(v.I64[r]))
			case vector.Float64:
				s.addFloat(v.F64[r])
			case vector.String:
				s.hashBytes(v.Str[r])
			case vector.Bool:
				if v.B[r] {
					s.hashWord(1)
				} else {
					s.hashWord(0)
				}
			}
		}
		s.rows++
	}
}

// addTextRows folds a text-format wire result; floatCols marks the columns
// summed with tolerance (nil hashes every field).
func (s *sig) addTextRows(rows [][]string, floatCols []bool) error {
	for _, row := range rows {
		for c, f := range row {
			if floatCols != nil && floatCols[c] {
				x, err := strconv.ParseFloat(f, 64)
				if err != nil {
					return fmt.Errorf("float column %d holds %q", c, f)
				}
				s.addFloat(x)
			} else {
				s.hashBytes(f)
			}
		}
		s.rows++
	}
	return nil
}

// ── transports ──────────────────────────────────────────────────────────

// conn executes ops for one client. reply carries what the driver accounts
// per op beyond its latency.
type conn interface {
	prepare(st *stmtDef) error
	do(o *op) (reply, error)
	close()
}

type reply struct {
	sig   sig
	bytes int64 // DataRow message bytes received (wire only)
	stats recycledb.QueryStats
}

var errAffected = errors.New("write reported the wrong row count")

// embeddedConn calls the engine's public API directly.
type embeddedConn struct {
	eng   *recycledb.Engine
	stmts map[*stmtDef]*recycledb.Stmt
}

func (c *embeddedConn) prepare(st *stmtDef) error {
	s, err := c.eng.Prepare(st.embed)
	if err != nil {
		return err
	}
	c.stmts[st] = s
	return nil
}

func (c *embeddedConn) do(o *op) (reply, error) {
	ctx := context.Background()
	if o.kind != opRead {
		res, err := c.stmts[o.stmt].Exec(ctx, o.args...)
		if err != nil {
			return reply{}, err
		}
		if res.RowsAffected != o.rows {
			return reply{}, errAffected
		}
		return reply{}, nil
	}
	var rows *recycledb.Rows
	var err error
	if o.plan != nil {
		rows, err = c.eng.Stream(ctx, o.plan)
	} else {
		rows, err = c.stmts[o.stmt].Query(ctx, o.args...)
	}
	if err != nil {
		return reply{}, err
	}
	r := reply{sig: newSig()}
	for {
		b, err := rows.Next(ctx)
		if err != nil {
			return reply{}, err
		}
		if b == nil {
			break
		}
		r.sig.addBatch(b)
	}
	r.stats = rows.Stats()
	return r, nil
}

func (c *embeddedConn) close() {}

// wireConn speaks pgwire to the in-process server: extended protocol,
// statements parsed once per connection, text results.
type wireConn struct {
	c   *pgclient.Conn
	eng *recycledb.Engine // only to learn result column types
	// floatCols caches, per statement, which result columns are computed
	// floats (nil for exact statements).
	floatCols map[*stmtDef][]bool
}

func (c *wireConn) prepare(st *stmtDef) error {
	return c.c.Prepare(st.name, st.pg)
}

func (c *wireConn) do(o *op) (reply, error) {
	res, err := c.c.Exec(o.stmt.name, o.text...)
	if err != nil {
		return reply{}, err
	}
	if o.kind != opRead {
		want := fmt.Sprintf("DELETE %d", o.rows)
		if o.kind == opInsert {
			want = fmt.Sprintf("INSERT 0 %d", o.rows)
		}
		if res.Tag != want {
			return reply{}, errAffected
		}
		return reply{}, nil
	}
	mask, ok := c.floatCols[o.stmt]
	if !ok {
		if mask, err = c.resultFloatCols(o); err != nil {
			return reply{}, err
		}
		c.floatCols[o.stmt] = mask
	}
	r := reply{sig: newSig()}
	if err := r.sig.addTextRows(res.Rows, mask); err != nil {
		return reply{}, err
	}
	// Per DataRow: type byte, length word, column count, and a length word
	// before each field.
	for _, row := range res.Rows {
		r.bytes += int64(7 + 4*len(row))
		for _, f := range row {
			r.bytes += int64(len(f))
		}
	}
	return r, nil
}

func (c *wireConn) resultFloatCols(o *op) ([]bool, error) {
	if o.stmt.exact {
		return nil, nil
	}
	st, err := c.eng.Prepare(o.stmt.embed)
	if err != nil {
		return nil, err
	}
	schema, err := st.ResultSchema(o.args...)
	if err != nil {
		return nil, err
	}
	mask := make([]bool, len(schema))
	for i, col := range schema {
		mask[i] = col.Typ == vector.Float64
	}
	return mask, nil
}

func (c *wireConn) close() { _ = c.c.Close() }

// ── environment ─────────────────────────────────────────────────────────

// env is one freshly set-up system under test: dataset, engine, and for
// wire workloads a server with one connection per client.
type env struct {
	cat   *catalog.Catalog
	eng   *recycledb.Engine
	srv   *server.Server
	stop  func() // shuts the server down and waits for it
	conns []conn
}

func loadCatalog() *catalog.Catalog {
	cat := catalog.New()
	tpch.Generate(cat, scaleFactor, dataSeed)
	skyserver.Load(cat, skyObjects, dataSeed)
	return cat
}

// newEnv starts an engine over cat — behind a pgwire server when wire is
// set — and opens n connections with every statement of w prepared.
func newEnv(w *workload, cat *catalog.Catalog, cfg recycledb.Config, wire bool, n int) (*env, error) {
	e := &env{cat: cat, eng: recycledb.NewWithCatalog(cfg, cat), stop: func() {}}
	if wire {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		e.srv = server.New(e.eng, server.Config{})
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = e.srv.Serve(ctx, lis)
		}()
		e.stop = func() { cancel(); <-done }
		for i := 0; i < n; i++ {
			pc, err := pgclient.Dial(ctx, lis.Addr().String(), "bench")
			if err != nil {
				e.close()
				return nil, err
			}
			e.conns = append(e.conns, &wireConn{c: pc, eng: e.eng, floatCols: make(map[*stmtDef][]bool)})
		}
	} else {
		for i := 0; i < n; i++ {
			e.conns = append(e.conns, &embeddedConn{eng: e.eng, stmts: make(map[*stmtDef]*recycledb.Stmt)})
		}
	}
	for _, c := range e.conns {
		for _, st := range w.stmts {
			if err := c.prepare(st); err != nil {
				e.close()
				return nil, fmt.Errorf("prepare %s: %w", st.name, err)
			}
		}
	}
	return e, nil
}

func (e *env) close() {
	for _, c := range e.conns {
		c.close()
	}
	e.stop()
}

// setUp builds the system a timed window runs against: load the data,
// start the engine (and server), connect, prepare, run the warm-up pass.
// Everything in here is what setup_s times.
func setUp(w *workload, seed int64, wire bool, clients int) (*env, error) {
	e, err := newEnv(w, loadCatalog(), w.cfg, wire, clients)
	if err != nil {
		return nil, err
	}
	if w.warm != nil {
		warm := w.warm(seed)
		errs := make([]error, len(e.conns))
		var wg sync.WaitGroup
		for ci, c := range e.conns {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := ci; i < len(warm); i += len(e.conns) {
					if _, err := c.do(&warm[i]); err != nil {
						errs[ci] = fmt.Errorf("warm-up %s: %w", warm[i].key, err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// ── the timed window ────────────────────────────────────────────────────

// observation is what one client saw of one distinct read op.
type observation struct {
	op       op
	first    sig
	agree    int64 // executions equal to first (first included)
	disagree int64
}

type clientTally struct {
	ops, failed  int64
	elapsed      time.Duration // start of the window to this client's last completion
	readUS       []float64     // latency of each read, µs
	writeUS      []float64
	rows, bytes  int64
	seen         map[string]*observation
	firstFailure error
}

func (t *clientTally) fail(err error) {
	t.failed++
	if t.firstFailure == nil {
		t.firstFailure = err
	}
}

// runClients drives each connection of e closed-loop from its own source
// until the window closes; an op in flight at the deadline completes and
// counts.
func runClients(e *env, srcs []opSource, window time.Duration, consistent bool) []clientTally {
	tallies := make([]clientTally, len(e.conns))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(window)
	for ci, c := range e.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := &tallies[ci]
			t.seen = make(map[string]*observation)
			for {
				o := srcs[ci].next()
				t0 := time.Now()
				if !t0.Before(deadline) {
					break
				}
				r, err := c.do(&o)
				us := float64(time.Since(t0).Nanoseconds()) / 1e3
				t.ops++
				if o.kind == opRead {
					t.readUS = append(t.readUS, us)
				} else {
					t.writeUS = append(t.writeUS, us)
				}
				if err != nil {
					t.fail(fmt.Errorf("%s: %w", o.key, err))
					continue
				}
				if o.kind != opRead {
					continue
				}
				t.rows += r.sig.rows
				t.bytes += r.bytes
				ob := t.seen[o.key]
				switch {
				case ob == nil:
					t.seen[o.key] = &observation{op: o, first: r.sig, agree: 1}
				case !consistent || ob.first.equal(r.sig):
					ob.agree++
				default:
					ob.disagree++
				}
			}
			t.elapsed = time.Since(start)
		}()
	}
	wg.Wait()
	return tallies
}

// ── the oracle ──────────────────────────────────────────────────────────

// oracleCfg is the reference: no recycling, no intra-query parallelism.
var oracleCfg = recycledb.Config{Mode: recycledb.Off, Parallelism: 1}

// runAll executes ops through the connections of e, split among them, and
// returns each op's signature.
func runAll(e *env, ops []*op) ([]sig, error) {
	out := make([]sig, len(ops))
	errs := make([]error, len(e.conns))
	var wg sync.WaitGroup
	for ci, c := range e.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := ci; i < len(ops); i += len(e.conns) {
				r, err := c.do(ops[i])
				if err != nil {
					errs[ci] = fmt.Errorf("%s: %w", ops[i].key, err)
					return
				}
				out[i] = r.sig
			}
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// verify checks what the clients observed and returns how many ops it
// could not vouch for, with the share of ops that were compared with the
// oracle.
//
// Audited keys run once on an Off-mode serial engine over the same catalog
// (behind its own server for wire workloads, so text compares with text);
// an op whose signature differs from the oracle's is a failure. Keys not
// audited are checked for agreement among their own executions, across
// clients too. On a churn workload results legitimately move with the data
// during the window, so instead every distinct read is re-run at quiesce on
// the system under test and on the oracle, and a mismatch fails every op of
// that statement.
func verify(w *workload, e *env, tallies []clientTally) (failed int64, coverage float64, firstErr error) {
	merged := make(map[string][]*observation)
	var total int64
	for i := range tallies {
		for k, ob := range tallies[i].seen {
			merged[k] = append(merged[k], ob)
			total += ob.agree + ob.disagree
		}
	}
	keys := make([]string, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	var audited []*op
	for _, k := range keys {
		if obs := merged[k]; obs[0].op.audit {
			audited = append(audited, &obs[0].op)
		}
	}
	oracle, err := newEnv(w, e.cat, oracleCfg, w.wire, len(e.conns))
	if err != nil {
		return total, 0, err
	}
	defer oracle.close()
	want, err := runAll(oracle, audited)
	if err != nil {
		return total, 0, fmt.Errorf("oracle: %w", err)
	}
	var got []sig
	if w.churn {
		if got, err = runAll(e, audited); err != nil {
			return total, 0, fmt.Errorf("quiesce: %w", err)
		}
	}
	expected := make(map[string]sig, len(audited))
	for i, o := range audited {
		expected[o.key] = want[i]
		if w.churn && !got[i].equal(want[i]) {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: result at quiesce differs from the oracle's", o.key)
			}
			for _, ob := range merged[o.key] {
				failed += ob.agree + ob.disagree
			}
		}
	}
	var covered int64
	for _, k := range keys {
		obs := merged[k]
		ref, ok := expected[k]
		if ok {
			for _, ob := range obs {
				covered += ob.agree + ob.disagree
			}
		} else {
			ref = obs[0].first
		}
		if w.churn {
			continue
		}
		for _, ob := range obs {
			bad := ob.disagree
			if !ob.first.equal(ref) {
				bad = ob.agree + ob.disagree
			}
			if bad > 0 && firstErr == nil {
				firstErr = fmt.Errorf("%s: result differs from the reference", k)
			}
			failed += bad
		}
	}
	if total > 0 {
		coverage = float64(covered) / float64(total)
	}
	return failed, coverage, firstErr
}

// ── one timed window ────────────────────────────────────────────────────

// counters are the recycler's and the server's own counts at one moment;
// the per-layer count metrics are differences of two.
type counters struct {
	rec recycler.Stats
	srv server.Stats
}

func readCounters(e *env) counters {
	c := counters{rec: e.eng.Recycler().Stats()}
	if e.srv != nil {
		c.srv = e.srv.Stats()
	}
	return c
}

// window is everything one timed window produced.
type window struct {
	tallies       []clientTally
	before, after counters
	heapMB        float64
	allocs        float64 // mallocs per op
	bytes         float64 // bytes allocated per op
}

// timedWindow runs the workload's clients against e for d and snapshots the
// counters and heap around it. Tracing is never on in here.
func timedWindow(w *workload, e *env, seed int64, d time.Duration) window {
	srcs := make([]opSource, len(e.conns))
	for c := range srcs {
		srcs[c] = w.gen(seed, c)
	}
	win := window{before: readCounters(e)}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	win.tallies = runClients(e, srcs, d, !w.churn)
	runtime.ReadMemStats(&m1)
	win.after = readCounters(e)
	var ops int64
	for i := range win.tallies {
		ops += win.tallies[i].ops
	}
	if ops > 0 {
		win.allocs = float64(m1.Mallocs-m0.Mallocs) / float64(ops)
		win.bytes = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(ops)
	}
	// What stays live once the window's garbage is gone: catalog, recycler
	// cache and graph, plus the driver's own samples. The second collection
	// empties the sync.Pools of operator scratch, whose content after one
	// collection depends on where the last queries happened to stop.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	win.heapMB = float64(m1.HeapAlloc) / (1 << 20)
	return win
}
