package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"time"

	"recycledb"
	"recycledb/internal/tpch"
	"recycledb/internal/vector"
)

// The dataset is the same for every workload and every seed: --seed moves
// only the operations. 300k lineitem rows keep a cold TPC-H query in the
// 2-300 ms range, so a 10 s window holds hundreds of misses and, on the wire
// workloads, tens of thousands of hits.
const (
	dataSeed   = 42
	skyObjects = 20000
	numClients = 2 // closed loop, one per CPU of the reference box
)

// scaleFactor is a variable only so the package's smoke test can run on a
// fifth of the data.
var scaleFactor = 0.05

type opKind uint8

const (
	opRead opKind = iota
	opInsert
	opDelete
)

// stmtDef is one SQL text in both placeholder dialects: $N for the wire,
// ? for the embedded API.
type stmtDef struct {
	name  string // prepared-statement name on the wire
	pg    string
	embed string
	// exact makes the result check hash float columns by their text instead
	// of summing them with a tolerance: right for raw table columns, whose
	// bits do not depend on evaluation order, and cheap on big results.
	exact bool
}

var dollarParam = regexp.MustCompile(`\$\d+`)

func newStmt(name, pg string) *stmtDef {
	return &stmtDef{name: name, pg: pg, embed: dollarParam.ReplaceAllString(pg, "?")}
}

// op is one operation a client issues. Equal keys mean the same statement
// with the same bindings, so (on unchanging data) the same result.
type op struct {
	key  string
	kind opKind
	// plan is set on plan-level ops (the TPC-H streams); stmt, args and
	// text on SQL ops. args feed the embedded API with the Go types the
	// server infers from the text bindings, so both transports produce the
	// same recycler signatures.
	plan *recycledb.Plan
	stmt *stmtDef
	args []any
	text []string
	// audit marks ops whose result is compared with the Off-mode oracle;
	// every other repeated op is compared with its own earlier executions.
	audit bool
	// rows is the affected-row count a write must report.
	rows int64
}

type arg struct {
	v    any
	text string
}

func dateArg(days int64) arg {
	return arg{vector.NewDateDatum(days), vector.DateString(days)}
}
func intArg(x int64) arg     { return arg{x, strconv.FormatInt(x, 10)} }
func strArg(s string) arg    { return arg{s, s} }
func floatArg(f float64) arg { return arg{f, strconv.FormatFloat(f, 'f', -1, 64)} }

func sqlOp(kind opKind, st *stmtDef, as ...arg) op {
	o := op{kind: kind, stmt: st, audit: true,
		args: make([]any, len(as)), text: make([]string, len(as))}
	for i, a := range as {
		o.args[i], o.text[i] = a.v, a.text
	}
	o.key = st.name + "|" + strings.Join(o.text, "|")
	return o
}

// ── statements ──────────────────────────────────────────────────────────

var (
	stQ1 = newStmt("q1", `SELECT l_returnflag, l_linestatus,
       sum(l_quantity) AS sum_qty,
       sum(l_extendedprice) AS sum_base_price,
       sum(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
       avg(l_quantity) AS avg_qty,
       avg(l_discount) AS avg_disc,
       count(*) AS count_order
FROM lineitem
WHERE l_shipdate <= $1
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus`)

	stQ3 = newStmt("q3", `SELECT l_orderkey, o_orderdate, o_shippriority,
       sum(l_extendedprice * (1 - l_discount)) AS revenue
FROM lineitem, orders, customer
WHERE c_mktsegment = $1 AND o_orderdate < $2 AND l_shipdate > $3
  AND l_orderkey = o_orderkey AND o_custkey = c_custkey
GROUP BY l_orderkey, o_orderdate, o_shippriority
ORDER BY revenue DESC LIMIT 10`)

	stQ6 = newStmt("q6", `SELECT sum(l_extendedprice * l_discount) AS revenue
FROM lineitem
WHERE l_shipdate >= $1 AND l_shipdate < $2
  AND l_discount BETWEEN $3 AND $4 AND l_quantity < $5`)

	stQ14 = newStmt("q14", `SELECT sum(CASE WHEN p_type LIKE 'PROMO%' THEN l_extendedprice * (1 - l_discount) ELSE 0.0 END) AS promo,
       sum(l_extendedprice * (1 - l_discount)) AS total
FROM lineitem, part
WHERE l_shipdate >= $1 AND l_shipdate < $2 AND l_partkey = p_partkey`)

	// stQ12 holds one text per ordered ship-mode pair: the dialect's IN
	// lists take literals only.
	stQ12 = func() map[[2]string]*stmtDef {
		m := make(map[[2]string]*stmtDef)
		for i, a := range tpch.ShipModes {
			for j, b := range tpch.ShipModes {
				if i == j {
					continue
				}
				m[[2]string{a, b}] = newStmt(fmt.Sprintf("q12_%d_%d", i, j), fmt.Sprintf(`SELECT l_shipmode,
       sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH') THEN 1 ELSE 0 END) AS high_line_count,
       sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH') THEN 0 ELSE 1 END) AS low_line_count
FROM lineitem, orders
WHERE l_shipmode IN ('%s', '%s')
  AND l_commitdate < l_receiptdate AND l_shipdate < l_commitdate
  AND l_receiptdate >= $1 AND l_receiptdate < $2
  AND l_orderkey = o_orderkey
GROUP BY l_shipmode
ORDER BY l_shipmode`, a, b))
			}
		}
		return m
	}()

	stBigRows = func() *stmtDef {
		st := newStmt("bigrows", `SELECT l_orderkey, l_partkey, l_suppkey, l_linenumber, l_quantity, l_extendedprice, l_discount, l_shipdate
FROM lineitem WHERE l_shipdate >= $1 AND l_shipdate < $2`)
		st.exact = true
		return st
	}()

	stInsert = func() *stmtDef {
		var b strings.Builder
		b.WriteString("INSERT INTO lineitem VALUES ")
		n := 0
		for r := 0; r < insertRows; r++ {
			if r > 0 {
				b.WriteString(", ")
			}
			b.WriteByte('(')
			for c := 0; c < lineitemCols; c++ {
				if c > 0 {
					b.WriteString(", ")
				}
				n++
				fmt.Fprintf(&b, "$%d", n)
			}
			b.WriteByte(')')
		}
		return newStmt("ins", b.String())
	}()

	stDelete = newStmt("del", `DELETE FROM lineitem WHERE l_orderkey = $1`)

	// stSky are the ten SkyServer cone statements: the paper's dominant
	// fGetNearbyObjEq(195, 2.5, 0.5) call under several projections, an
	// aggregate over it, and cones at the catalog's other dense regions.
	// Table-function arguments are literals in the dialect, so every cone is
	// its own text — as in the observed log, where one call repeats verbatim.
	stSky = func() []*stmtDef {
		cone := func(ra, dec, r, cols string, limit int) string {
			return fmt.Sprintf("SELECT %s FROM fGetNearbyObjEq(%s, %s, %s), PhotoPrimary WHERE nearby_objID = objID LIMIT %d",
				cols, ra, dec, r, limit)
		}
		const wide = `objID, run, rerun, camcol, field, obj, type`
		const narrow = `objID, ra, dec, r_mag`
		texts := []string{
			cone("195.0", "2.5", "0.5", wide, 10),
			cone("195.0", "2.5", "0.5", narrow, 10),
			cone("195.0", "2.5", "0.5", narrow, 15),
			cone("195.0", "2.5", "0.5", narrow, 20),
			`SELECT type, count(*) AS n, avg(r_mag) AS avg_r FROM fGetNearbyObjEq(195.0, 2.5, 0.5), PhotoPrimary WHERE nearby_objID = objID GROUP BY type`,
			cone("180.0", "0.0", "0.5", wide, 10),
			cone("210.0", "5.0", "0.5", wide, 10),
			cone("150.0", "30.0", "1.0", wide, 10),
			cone("180.0", "0.0", "0.5", narrow, 10),
			cone("210.0", "5.0", "0.5", narrow, 15),
		}
		out := make([]*stmtDef, len(texts))
		for i, t := range texts {
			out[i] = newStmt(fmt.Sprintf("sky%d", i), t)
		}
		return out
	}()
)

const (
	insertRows   = 8
	lineitemCols = 15
)

var sqlPatterns = []int{1, 3, 6, 12, 14}

// tpchSQLOp renders one TPC-H pattern instance as a SQL op.
func tpchSQLOp(p tpch.Params) op {
	switch p.Q {
	case 1:
		return sqlOp(opRead, stQ1, dateArg(p.Date))
	case 3:
		return sqlOp(opRead, stQ3, strArg(p.Str1), dateArg(p.Date), dateArg(p.Date))
	case 6:
		return sqlOp(opRead, stQ6, dateArg(p.Date), dateArg(tpch.AddYears(p.Date, 1)),
			floatArg(p.Float1-0.011), floatArg(p.Float1+0.011), intArg(p.Int1))
	case 12:
		return sqlOp(opRead, stQ12[[2]string{p.Strs[0], p.Strs[1]}],
			dateArg(p.Date), dateArg(tpch.AddYears(p.Date, 1)))
	case 14:
		next := time.Unix(p.Date*86400, 0).UTC().AddDate(0, 1, 0).Unix() / 86400
		return sqlOp(opRead, stQ14, dateArg(p.Date), dateArg(next))
	}
	panic(fmt.Sprintf("benchmark: no SQL text for TPC-H Q%d", p.Q))
}

func planOp(p tpch.Params, audit bool) op {
	return op{key: p.String(), plan: tpch.Build(p), audit: audit}
}

// ── workloads ───────────────────────────────────────────────────────────

// opSource yields one client's operations in order. The sequence depends
// only on (workload, seed, client), never on timing.
type opSource interface{ next() op }

type workload struct {
	name string
	why  string
	// wire routes ops through an in-process pgwire server over loopback TCP
	// with prepared statements; otherwise clients call the embedded API.
	wire bool
	cfg  recycledb.Config
	// stmts lists every SQL text a client may issue, prepared during set-up.
	stmts []*stmtDef
	// warm is the warm-up pass, split across the clients, that runs before
	// the timed window; nil means the window starts cold.
	warm func(seed int64) []op
	gen  func(seed int64, client int) opSource
	// churn marks a workload whose writes make per-op results depend on the
	// interleaving: reads are checked at quiesce instead.
	churn bool
}

var workloads = []*workload{
	{
		name: "streams_off",
		why:  "TPC-H qgen streams with recycling off: the executor does all the work and the recycler none",
		cfg:  recycledb.Config{Mode: recycledb.Off},
		// One fixed stream pages the data in; fixed, so set-up costs the same
		// at every seed.
		warm: func(int64) []op { return streamOps(tpch.NewStream(0, dataSeed), true) },
		gen: func(seed int64, client int) opSource {
			return &streamSource{seed: seed, id: client, pool: streamsOffPool, auditEvery: 1}
		},
	},
	{
		name: "streams_spec",
		why:  "the paper's stream experiment from a cold cache smaller than the working set: reuse, admission, eviction",
		// The default 256 MiB cache holds every result a 10 s window
		// produces (64 streams fill ~200 MiB), so nothing would be evicted;
		// a quarter of it makes the working set exceed the cache within the
		// window, as 256 streams do against the default in a long run.
		cfg: recycledb.Config{Mode: recycledb.Speculative, CacheBytes: 64 << 20},
		gen: func(seed int64, client int) opSource {
			return &streamSource{seed: seed, id: client, auditEvery: specAuditEvery}
		},
	},
	{
		name:  "wire_hot",
		why:   "30 prepared statements over pgwire, all cached: protocol, plan and shape LRUs, match and replay do the work",
		wire:  true,
		cfg:   recycledb.Config{Mode: recycledb.Speculative},
		stmts: hotStmts(),
		warm:  hotPool,
		gen: func(seed int64, client int) opSource {
			return &poolSource{pool: hotPool(seed), rng: clientRNG(seed, client)}
		},
	},
	{
		name:  "wire_churn",
		why:   "full-domain parameters with 10% writes: commits, invalidation and delta extension beside cache misses",
		wire:  true,
		cfg:   recycledb.Config{Mode: recycledb.Speculative},
		stmts: append(hotStmts(), stInsert, stDelete),
		warm: func(seed int64) []op {
			src := &churnSource{rng: rand.New(rand.NewSource(seed ^ 0x5eed)), readsOnly: true}
			out := make([]op, churnWarmOps)
			for i := range out {
				out[i] = src.next()
			}
			return out
		},
		gen: func(seed int64, client int) opSource {
			return &churnSource{rng: clientRNG(seed, client), client: client}
		},
		churn: true,
	},
	{
		name:  "wire_bigrows",
		why:   "month-sized lineitem windows, ~3.7k rows per cached result: clone, streaming, text encode and flush dominate",
		wire:  true,
		cfg:   recycledb.Config{Mode: recycledb.Speculative},
		stmts: []*stmtDef{stBigRows},
		warm: func(seed int64) []op {
			out := make([]op, bigRowsWindows)
			for w := range out {
				out[w] = bigRowsOp(w)
			}
			return out
		},
		gen: func(seed int64, client int) opSource {
			return &bigRowsSource{rng: clientRNG(seed, client), z: newZipf(bigRowsWindows, 1.0),
				perm: rand.New(rand.NewSource(seed)).Perm(bigRowsWindows)}
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func clientRNG(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(client)*104729 + 17))
}

// ── TPC-H streams ───────────────────────────────────────────────────────

const (
	// streamsOffPool is how many distinct streams streams_off cycles
	// through. With recycling off a repeated query costs what a new one
	// does, so a small pool changes nothing about the work while keeping the
	// oracle (which must run every distinct query once, serially) short.
	streamsOffPool = 16
	// specAuditEvery: on streams_spec every fourth stream is checked
	// against the oracle. Checking all of them would cost the oracle about
	// qps(spec)/qps(off) times the timed window itself.
	specAuditEvery = 4
)

func streamOps(s tpch.Stream, audit bool) []op {
	out := make([]op, len(s.Queries))
	for i, p := range s.Queries {
		out[i] = planOp(p, audit)
	}
	return out
}

// streamSource walks whole qgen streams: client c takes streams c, c+2, …
// (modulo pool when pool > 0).
type streamSource struct {
	seed       int64
	id         int // next stream id
	pool       int
	auditEvery int
	cur        []op
}

func (s *streamSource) next() op {
	if len(s.cur) == 0 {
		id := s.id
		if s.pool > 0 {
			id %= s.pool
		}
		s.cur = streamOps(tpch.NewStream(id, s.seed), id%s.auditEvery == 0)
		s.id += numClients
	}
	o := s.cur[0]
	s.cur = s.cur[1:]
	return o
}

// ── wire_hot ────────────────────────────────────────────────────────────

const hotVariants = 4

func hotStmts() []*stmtDef {
	out := []*stmtDef{stQ1, stQ3, stQ6, stQ14}
	for i := range tpch.ShipModes {
		for j := range tpch.ShipModes {
			if i != j {
				out = append(out, stQ12[[2]string{tpch.ShipModes[i], tpch.ShipModes[j]}])
			}
		}
	}
	return append(out, stSky...)
}

// hotPool is the 30-statement working set: four distinct parameter variants
// of each TPC-H pattern drawn from seed, plus the fixed cone statements.
func hotPool(seed int64) []op {
	rng := rand.New(rand.NewSource(seed))
	var pool []op
	for _, q := range sqlPatterns {
		seen := make(map[string]bool)
		for len(seen) < hotVariants {
			o := tpchSQLOp(tpch.NewParams(q, rng))
			if !seen[o.key] {
				seen[o.key] = true
				pool = append(pool, o)
			}
		}
	}
	for _, st := range stSky {
		pool = append(pool, sqlOp(opRead, st))
	}
	return pool
}

type poolSource struct {
	pool []op
	rng  *rand.Rand
}

func (s *poolSource) next() op { return s.pool[s.rng.Intn(len(s.pool))] }

// ── wire_churn ──────────────────────────────────────────────────────────

const (
	churnWarmOps    = 300
	churnWriteEach  = 10 // every 10th op of a client is a write
	churnDeleteEach = 8  // every 8th write deletes instead of inserting
	// churnKeyBase is above every generated l_orderkey; each client inserts
	// under its own key range, so a delete's row count is exact.
	churnKeyBase = 10_000_000
)

// churnSource writes on a fixed schedule — every tenth op of a client, every
// eighth write a delete — so the seed moves the statements' parameters and
// the inserted values, not how much invalidation a window sees.
type churnSource struct {
	rng       *rand.Rand
	client    int
	readsOnly bool
	ops       int
	writes    int
	nextKey   int64
	live      []int64 // inserted, not yet deleted, oldest first
}

func (s *churnSource) next() op {
	s.ops++
	if !s.readsOnly && s.ops%churnWriteEach == 0 {
		s.writes++
		if s.writes%churnDeleteEach == 0 && len(s.live) > 0 {
			key := s.live[0]
			s.live = s.live[1:]
			o := sqlOp(opDelete, stDelete, intArg(key))
			o.rows = insertRows
			return o
		}
		key := churnKeyBase + int64(s.client)*1_000_000 + s.nextKey
		s.nextKey++
		s.live = append(s.live, key)
		return insertOp(key, s.rng)
	}
	q := sqlPatterns[s.rng.Intn(len(sqlPatterns))]
	return tpchSQLOp(tpch.NewParams(q, s.rng))
}

var (
	lineitemFirstShip = vector.MustParseDate("1992-01-02")
	shipSpanDays      = int(vector.MustParseDate("1998-12-01") - lineitemFirstShip)
)

// insertOp appends one order's worth of plausible lineitem rows: values
// spread over the generator's domains, so the rows fall inside the read
// statements' predicate windows and the delta extensions are not empty.
func insertOp(key int64, rng *rand.Rand) op {
	as := make([]arg, 0, insertRows*lineitemCols)
	for r := 0; r < insertRows; r++ {
		qty := int64(1 + rng.Intn(50))
		ship := lineitemFirstShip + int64(rng.Intn(shipSpanDays))
		as = append(as,
			intArg(key),
			intArg(int64(1+rng.Intn(10000))),
			intArg(int64(1+rng.Intn(500))),
			intArg(int64(r+1)),
			intArg(qty),
			floatArg(float64(qty)*(900+float64(rng.Intn(100000))/100)),
			floatArg(float64(rng.Intn(11))/100),
			floatArg(float64(rng.Intn(9))/100),
			strArg([]string{"N", "R", "A"}[rng.Intn(3)]),
			strArg([]string{"O", "F"}[rng.Intn(2)]),
			dateArg(ship),
			dateArg(ship+int64(rng.Intn(60))-30),
			dateArg(ship+int64(1+rng.Intn(30))),
			strArg(tpch.Instructs[rng.Intn(len(tpch.Instructs))]),
			strArg(tpch.ShipModes[rng.Intn(len(tpch.ShipModes))]),
		)
	}
	o := sqlOp(opInsert, stInsert, as...)
	o.rows = insertRows
	return o
}

// ── wire_bigrows ────────────────────────────────────────────────────────

const (
	// bigRowsWindows 30-day windows from 1992-05-01 cover exactly the span
	// in which the generator's ship dates have full density, so every window
	// holds ~3.9k rows whichever window the seed makes the hottest.
	bigRowsWindows    = 72
	bigRowsWindowDays = 30
)

var bigRowsFirstDay = vector.MustParseDate("1992-05-01")

func bigRowsOp(window int) op {
	lo := bigRowsFirstDay + int64(window*bigRowsWindowDays)
	return sqlOp(opRead, stBigRows, dateArg(lo), dateArg(lo+bigRowsWindowDays))
}

// bigRowsSource draws the window Zipf(1)-distributed; perm maps popularity
// rank to window per seed.
type bigRowsSource struct {
	rng  *rand.Rand
	z    *zipf
	perm []int
}

func (s *bigRowsSource) next() op { return bigRowsOp(s.perm[s.z.sample(s.rng)]) }

// sequenceHash fingerprints the first n ops of every client of w at seed:
// what "same seed, same inputs" means for this benchmark.
func sequenceHash(w *workload, seed int64, n int) uint64 {
	h := fnv.New64a()
	for c := 0; c < numClients; c++ {
		src := w.gen(seed, c)
		for i := 0; i < n; i++ {
			h.Write([]byte(src.next().key))
			h.Write([]byte{0})
		}
	}
	return h.Sum64()
}
