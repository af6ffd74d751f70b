package exec

import (
	"sort"
	"sync"
	"time"

	"recycledb/internal/catalog"
	"recycledb/internal/expr"
	"recycledb/internal/plan"
	"recycledb/internal/vector"
)

// AggExpr is one aggregate computation evaluated by AggOp.
type AggExpr struct {
	Func plan.AggFunc
	Arg  expr.Expr   // nil for count(*)
	Typ  vector.Type // output type (resolved by the planner)
}

// acc is a single aggregate accumulator.
type acc struct {
	i   int64
	f   float64
	s   string
	cnt int64
	set bool
}

// groupOrd is a group's first-occurrence position in the morsel-ordered
// input stream: the morsel index and the running row offset within that
// morsel's (filtered) tuple flow. Serial execution discovers groups in
// exactly ascending groupOrd, so sorting a merged parallel aggregation by
// groupOrd reproduces the serial engine's group emission order bit for bit
// (see AggOp).
type groupOrd struct {
	morsel int
	row    int64
}

func (a groupOrd) less(b groupOrd) bool {
	if a.morsel != b.morsel {
		return a.morsel < b.morsel
	}
	return a.row < b.row
}

// aggState is the accumulation core of AggOp — one per worker, plus the
// merged state when there are several: the group directory (open-addressing
// table keyed by columnar hashes, verified with typed comparators against
// the stored key rows) plus one accumulator per (aggregate, group). No
// per-row key bytes are encoded or allocated. Partial states built over
// disjoint input partitions merge losslessly with mergeFrom —
// count/sum/avg/min/max accumulators all carry enough to combine.
type aggState struct {
	groupCols []int // group-by column indexes in the input schema
	aggs      []AggExpr
	scalar    bool

	table     oaTable
	groupHash []uint64      // per group
	keyRows   *vector.Batch // one row per group: the group-by column values
	keyCols   []int         // 0..len(groupCols)-1, the keyRows columns
	accs      [][]acc       // accs[agg][group]
	nGroups   int

	rowH   []uint64         // per-batch scratch: group hashes
	argVec []*vector.Vector // per-batch scratch: evaluated aggregate args
	argTmp *vector.Vector   // coercion scratch for EvalAsScratch

	// trackOrd enables first-occurrence tracking for parallel merges.
	trackOrd  bool
	ord       []groupOrd // per group
	curMorsel int
	rowBase   int64

	// fastHash selects the single-column int64 group hash (hash.go). It is
	// set in open from the input schema alone, so every state of one
	// statement — worker partials and the final merge alike — makes the
	// same choice and the stored group hashes stay mutually consistent
	// across mergeFrom.
	fastHash bool
}

// open draws scratch from the pool. inSchema is the aggregation input
// schema (the child operator's).
func (st *aggState) open(ctx *Ctx, inSchema catalog.Schema) {
	st.nGroups = 0
	st.groupHash = st.groupHash[:0]
	st.ord = st.ord[:0]
	st.curMorsel = 0
	st.rowBase = 0
	st.scalar = len(st.groupCols) == 0
	st.fastHash = len(st.groupCols) == 1 && fastHashType(inSchema[st.groupCols[0]].Typ)
	if st.fastHash {
		fastHashEngaged.Add(1)
	}
	st.accs = make([][]acc, len(st.aggs))
	keyTypes := make([]vector.Type, len(st.groupCols))
	st.keyCols = make([]int, len(st.groupCols))
	for i, c := range st.groupCols {
		keyTypes[i] = inSchema[c].Typ
		st.keyCols[i] = i
	}
	st.keyRows = ctx.pool().GetBatch(keyTypes, 64)
	st.table.init(64)
	if st.argVec == nil {
		st.argVec = make([]*vector.Vector, len(st.aggs))
	}
	for a, ag := range st.aggs {
		if ag.Arg != nil {
			st.argVec[a] = ctx.pool().Get(argType(ag), ctx.vecSize())
		}
	}
	st.argTmp = ctx.pool().Get(vector.Float64, ctx.vecSize())
}

// close returns scratch to the pool.
func (st *aggState) close(ctx *Ctx) {
	pool := ctx.pool()
	if st.keyRows != nil {
		pool.PutBatch(st.keyRows)
		st.keyRows = nil
	}
	for a, v := range st.argVec {
		if v != nil {
			pool.Put(v)
			st.argVec[a] = nil
		}
	}
	if st.argTmp != nil {
		pool.Put(st.argTmp)
		st.argTmp = nil
	}
	st.accs = nil
	st.table.buckets = nil
	st.groupHash = nil
	st.ord = nil
}

// startMorsel positions the order clock at the head of morsel m.
func (st *aggState) startMorsel(m int) {
	st.curMorsel = m
	st.rowBase = 0
}

// lookupGroup resolves the group id for physical row r of in (whose group
// hash is gh), inserting a new group if needed. inCols maps the state's key
// positions to in's columns; ord is the row's stream position (recorded for
// new groups when trackOrd is on).
func (st *aggState) lookupGroup(gh uint64, in *vector.Batch, r int, inCols []int, ord groupOrd) int {
	s := st.table.slot(gh)
	for {
		g := st.table.buckets[s]
		if g < 0 {
			break
		}
		if st.groupHash[g] == gh &&
			keyRowsEqual(st.keyRows, int(g), st.keyCols, in, r, inCols) {
			return int(g)
		}
		s = (s + 1) & st.table.mask
	}
	// New group: record its key row, hash, and fresh accumulators.
	g := st.nGroups
	st.nGroups++
	st.groupHash = append(st.groupHash, gh)
	for k, c := range inCols {
		st.keyRows.Vecs[k].AppendFrom(in.Vecs[c], r)
	}
	for a := range st.aggs {
		st.accs[a] = append(st.accs[a], acc{})
	}
	if st.trackOrd {
		st.ord = append(st.ord, ord)
	}
	st.table.buckets[s] = int32(g)
	if st.nGroups*4 >= len(st.table.buckets)*3 {
		st.grow()
	}
	return g
}

// grow doubles the directory and reinserts every group by its stored hash.
func (st *aggState) grow() {
	st.table.init(len(st.table.buckets)) // init sizes to 2x entries
	for g, gh := range st.groupHash {
		s := st.table.slot(gh)
		for st.table.buckets[s] >= 0 {
			s = (s + 1) & st.table.mask
		}
		st.table.buckets[s] = int32(g)
	}
}

// absorb folds one input batch into the state.
func (st *aggState) absorb(in *vector.Batch) error {
	n := in.Len()
	if n == 0 {
		return nil
	}
	// Evaluate aggregate arguments once per batch (selection-aware),
	// coercing to the accumulator's type (avg over an int column
	// accumulates floats).
	for a, ag := range st.aggs {
		if ag.Arg == nil {
			continue
		}
		st.argVec[a].Reset()
		if err := expr.EvalAsScratch(ag.Arg, in, st.argVec[a], argType(ag), st.argTmp); err != nil {
			return err
		}
	}
	if st.scalar {
		st.ensureScalarGroup()
		for a, ag := range st.aggs {
			accs := st.accs[a]
			for i := 0; i < n; i++ {
				update(&accs[0], ag, st.argVec[a], i)
			}
		}
		st.rowBase += int64(n)
		return nil
	}
	if cap(st.rowH) < n {
		st.rowH = make([]uint64, n)
	}
	st.rowH = st.rowH[:n]
	if st.fastHash {
		hashI64Fast(in.Vecs[st.groupCols[0]], in.Sel, st.rowH)
	} else {
		hashColumns(in, st.groupCols, st.rowH)
	}
	sel := in.Sel
	for i := 0; i < n; i++ {
		r := i
		if sel != nil {
			r = int(sel[i])
		}
		g := st.lookupGroup(st.rowH[i], in, r, st.groupCols,
			groupOrd{st.curMorsel, st.rowBase + int64(i)})
		for a, ag := range st.aggs {
			update(&st.accs[a][g], ag, st.argVec[a], i)
		}
	}
	st.rowBase += int64(n)
	return nil
}

// ensureScalarGroup guarantees the single output row of a scalar
// aggregation exists (even over empty input).
func (st *aggState) ensureScalarGroup() {
	if st.nGroups == 0 {
		st.nGroups = 1
		for a := range st.aggs {
			st.accs[a] = append(st.accs[a], acc{})
		}
		if st.trackOrd {
			st.ord = append(st.ord, groupOrd{})
		}
	}
}

// mergeFrom folds src's groups into st. Both states must share the same
// aggregate shapes; src must be order-tracked if st is.
func (st *aggState) mergeFrom(src *aggState) {
	if src.nGroups == 0 {
		return
	}
	if st.scalar {
		st.ensureScalarGroup()
		for a, ag := range st.aggs {
			mergeAcc(&st.accs[a][0], &src.accs[a][0], ag)
		}
		return
	}
	for g := 0; g < src.nGroups; g++ {
		var ord groupOrd
		if src.trackOrd {
			ord = src.ord[g]
		}
		dst := st.lookupGroup(src.groupHash[g], src.keyRows, g, src.keyCols, ord)
		for a, ag := range st.aggs {
			mergeAcc(&st.accs[a][dst], &src.accs[a][g], ag)
		}
		if st.trackOrd && src.trackOrd && src.ord[g].less(st.ord[dst]) {
			st.ord[dst] = src.ord[g]
		}
	}
}

// mergeAcc combines two partial accumulators for one aggregate. The
// accumulator representation is closed under merging: counts and sums add,
// avg carries (sum, count), min/max compare with the set flag guarding
// never-updated partials.
func mergeAcc(dst, src *acc, ag AggExpr) {
	switch ag.Func {
	case plan.Count:
		dst.cnt += src.cnt
	case plan.Sum:
		dst.i += src.i
		dst.f += src.f
	case plan.Avg:
		dst.f += src.f
		dst.cnt += src.cnt
	case plan.Min, plan.Max:
		if !src.set {
			return
		}
		if !dst.set {
			*dst = *src
			return
		}
		min := ag.Func == plan.Min
		switch argType(ag) {
		case vector.Int64, vector.Date:
			if (min && src.i < dst.i) || (!min && src.i > dst.i) {
				dst.i = src.i
			}
		case vector.Float64:
			if (min && src.f < dst.f) || (!min && src.f > dst.f) {
				dst.f = src.f
			}
		case vector.String:
			if (min && src.s < dst.s) || (!min && src.s > dst.s) {
				dst.s = src.s
			}
		}
	}
}

// emitRange appends groups [lo, hi) in group-id order: keys column-wise,
// accumulators finalized row-wise.
func (st *aggState) emitRange(out *vector.Batch, lo, hi int) {
	nk := len(st.groupCols)
	for k := 0; k < nk; k++ {
		out.Vecs[k].AppendRange(st.keyRows.Vecs[k], lo, hi)
	}
	aggEmitKernelRuns.Add(1)
	for a, ag := range st.aggs {
		outV := out.Vecs[nk+a]
		accs := st.accs[a]
		if emitAccsRange(outV, accs[lo:hi], ag) {
			continue
		}
		for g := lo; g < hi; g++ {
			emitAcc(outV, &accs[g], ag)
		}
	}
}

// emitIndex appends the groups listed in idx, in idx order.
func (st *aggState) emitIndex(out *vector.Batch, idx []int32) {
	nk := len(st.groupCols)
	for k := 0; k < nk; k++ {
		out.Vecs[k].AppendGather(st.keyRows.Vecs[k], idx)
	}
	aggEmitKernelRuns.Add(1)
	for a, ag := range st.aggs {
		outV := out.Vecs[nk+a]
		accs := st.accs[a]
		if emitAccsIndex(outV, accs, idx, ag) {
			continue
		}
		for _, g := range idx {
			emitAcc(outV, &accs[g], ag)
		}
	}
}

// argType returns the vector type the aggregate argument evaluates to.
func argType(ag AggExpr) vector.Type {
	switch ag.Func {
	case plan.Avg:
		return vector.Float64
	case plan.Count:
		return ag.Typ // unused payload; count only counts rows
	case plan.Sum:
		if ag.Typ == vector.Float64 {
			return vector.Float64
		}
		return vector.Int64
	default: // Min, Max: output type equals argument type
		return ag.Typ
	}
}

func update(a *acc, ag AggExpr, arg *vector.Vector, i int) {
	switch ag.Func {
	case plan.Count:
		a.cnt++
	case plan.Sum:
		if arg.Typ == vector.Float64 {
			a.f += arg.F64[i]
		} else {
			a.i += arg.I64[i]
		}
	case plan.Avg:
		a.f += arg.F64[i]
		a.cnt++
	case plan.Min:
		updateMinMax(a, arg, i, true)
	case plan.Max:
		updateMinMax(a, arg, i, false)
	}
}

func updateMinMax(a *acc, arg *vector.Vector, i int, min bool) {
	switch arg.Typ {
	case vector.Int64, vector.Date:
		x := arg.I64[i]
		if !a.set || (min && x < a.i) || (!min && x > a.i) {
			a.i = x
		}
	case vector.Float64:
		x := arg.F64[i]
		if !a.set || (min && x < a.f) || (!min && x > a.f) {
			a.f = x
		}
	case vector.String:
		x := arg.Str[i]
		if !a.set || (min && x < a.s) || (!min && x > a.s) {
			a.s = x
		}
	}
	a.set = true
}

func emitAcc(out *vector.Vector, a *acc, ag AggExpr) {
	switch ag.Func {
	case plan.Count:
		out.AppendInt64(a.cnt)
	case plan.Sum:
		if ag.Typ == vector.Float64 {
			out.AppendFloat64(a.f)
		} else {
			out.AppendInt64(a.i)
		}
	case plan.Avg:
		if a.cnt == 0 {
			out.AppendFloat64(0)
		} else {
			out.AppendFloat64(a.f / float64(a.cnt))
		}
	case plan.Min, plan.Max:
		switch ag.Typ {
		case vector.Int64, vector.Date:
			out.AppendInt64(a.i)
		case vector.Float64:
			out.AppendFloat64(a.f)
		case vector.String:
			out.AppendString(a.s)
		}
	}
}

// aggWorker is one worker of an aggregation: a fused input pipe whose sink
// absorbs into a worker-local group table.
type aggWorker struct {
	pipe *fusedPipe
	wctx Ctx // copy of the statement Ctx; maps shared read-only
	st   aggState
}

// AggOp is the blocking grouped aggregation, the root of every aggregation
// fragment. With no group columns it produces exactly one row (the
// scalar-aggregate convention used by the decorrelated TPC-H plans).
//
// A lone worker — every pull-sourced input, and any morsel source too small
// to split — runs inline on the consumer goroutine and emits straight from
// its own table in discovery order: no ordinals, no merge, no sort. Several
// workers each drain morsels into a partial table; end-of-input merges the
// partials and emits the groups sorted by first occurrence in the
// morsel-ordered stream — precisely the order a lone worker discovers them —
// so the output is order-deterministic and worker-count-independent (float
// sums modulo re-association).
type AggOp struct {
	fragRoot
	workers []*aggWorker

	final  *aggState // the lone worker's table, or merged
	merged aggState
	order  []int32 // several workers: emission order
	out    *vector.Batch

	closed, built bool
	emit          int

	failMu  sync.Mutex
	failErr error

	mergeNanos int64 // merge, order sort and group emission
}

// newAggOp assembles the aggregation of aggs grouped by groupCols (column
// indexes in the pipes' output) over its input pipes, one worker each.
func newAggOp(root fragRoot, groupCols []int, aggs []AggExpr, pipes []*fusedPipe) *AggOp {
	a := &AggOp{fragRoot: root}
	for _, p := range pipes {
		w := &aggWorker{pipe: p}
		w.st.groupCols = groupCols
		w.st.aggs = make([]AggExpr, len(aggs))
		for i, ag := range aggs {
			w.st.aggs[i] = ag
			if ag.Arg != nil {
				w.st.aggs[i].Arg = ag.Arg.Clone() // per-worker evaluation scratch
			}
		}
		w.st.trackOrd = len(pipes) > 1
		// Absorption happens inside the drive loop; push() times it as the
		// pipe's sinkNanos, so spine-node attribution excludes it.
		p.sink = w.st.absorb
		a.workers = append(a.workers, w)
	}
	a.final = &a.workers[0].st
	if len(pipes) > 1 {
		a.final = &a.merged
		a.merged.groupCols, a.merged.aggs, a.merged.trackOrd = groupCols, a.workers[0].st.aggs, true
	}
	return a
}

// Open implements Operator.
func (a *AggOp) Open(ctx *Ctx) error {
	a.closed, a.built, a.emit, a.order = false, false, 0, nil
	if err := a.openBuilds(ctx); err != nil {
		return err
	}
	for _, w := range a.workers {
		w.wctx = *ctx
		if err := w.pipe.open(&w.wctx); err != nil {
			return err
		}
		w.st.open(&w.wctx, w.pipe.schema)
	}
	if a.final == &a.merged {
		a.merged.open(ctx, a.workers[0].pipe.schema)
	}
	a.out = ctx.pool().GetBatch(a.schema.Types(), ctx.vecSize())
	return nil
}

func (a *AggOp) fail(err error) {
	a.failMu.Lock()
	if a.failErr == nil {
		a.failErr = err
	}
	a.failMu.Unlock()
	a.src.stop()
}

// run consumes the whole input: inline for a lone worker; otherwise workers
// aggregate morsels in parallel, then the consumer folds the partials and
// fixes the emission order.
func (a *AggOp) run(ctx *Ctx) error {
	for _, w := range a.workers {
		// Refresh the cancellation context: the consumer may have swapped
		// it between Open and the first pull.
		w.wctx.Context = ctx.Context
	}
	if len(a.workers) == 1 {
		w := a.workers[0]
		for done := false; !done; {
			var err error
			if done, err = w.pipe.step(&w.wctx); err != nil {
				return err
			}
		}
	} else {
		var wg sync.WaitGroup
		for _, w := range a.workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					m, ok := a.src.claim()
					if !ok {
						return
					}
					w.st.startMorsel(m)
					if err := w.pipe.driveMorsel(&w.wctx, m); err != nil {
						a.fail(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if a.failErr != nil {
			return a.failErr
		}
		start := time.Now()
		for _, w := range a.workers {
			a.merged.mergeFrom(&w.st)
		}
		a.mergeNanos += time.Since(start).Nanoseconds()
	}
	// Scalar aggregation over empty input still yields one row.
	if a.final.scalar {
		a.final.ensureScalarGroup()
	}
	if a.final == &a.merged {
		// Emission order: ascending first occurrence == discovery order.
		start := time.Now()
		a.order = make([]int32, a.merged.nGroups)
		for i := range a.order {
			a.order[i] = int32(i)
		}
		sort.Slice(a.order, func(i, j int) bool {
			return a.merged.ord[a.order[i]].less(a.merged.ord[a.order[j]])
		})
		a.mergeNanos += time.Since(start).Nanoseconds()
	}
	a.built = true
	return nil
}

// Next implements Operator.
func (a *AggOp) Next(ctx *Ctx) (*vector.Batch, error) {
	if err := ctx.Interrupted(); err != nil {
		return nil, err
	}
	if !a.built {
		if err := a.run(ctx); err != nil {
			return nil, err
		}
	}
	if a.emit >= a.final.nGroups {
		return nil, nil
	}
	start := time.Now()
	a.out.Reset()
	lo := a.emit
	hi := min(lo+ctx.vecSize(), a.final.nGroups)
	if a.order != nil {
		a.final.emitIndex(a.out, a.order[lo:hi])
	} else {
		a.final.emitRange(a.out, lo, hi)
	}
	a.emit = hi
	a.rows += int64(hi - lo)
	a.mergeNanos += time.Since(start).Nanoseconds()
	return a.out, nil
}

// Close implements Operator.
func (a *AggOp) Close(ctx *Ctx) error {
	if a.closed {
		return nil
	}
	a.closed = true
	if a.src != nil {
		a.src.stop()
	}
	var first error
	for _, w := range a.workers {
		if err := w.pipe.close(&w.wctx); err != nil && first == nil {
			first = err
		}
		w.st.close(&w.wctx) // nil-guarded: safe after a partial Open
	}
	a.merged.close(ctx)
	if a.out != nil {
		ctx.pool().PutBatch(a.out)
		a.out = nil
	}
	return a.closeBuilds(ctx, first)
}

// Progress implements Operator: a blocking operator knows its output total
// once built (§III-D); before that it reports 0 so the store above it does
// not extrapolate from an empty prefix.
func (a *AggOp) Progress() float64 {
	if !a.built {
		return 0
	}
	if a.final.nGroups == 0 {
		return 1
	}
	return float64(a.emit) / float64(a.final.nGroups)
}

// Cost implements Operator: total work across workers (pipe + accumulation)
// plus shared builds, the merge and group emission — an inclusive subtree
// cost. Safe to read once the first batch is out (run() has completed;
// worker fields are quiescent behind the join).
func (a *AggOp) Cost() time.Duration {
	c := time.Duration(a.mergeNanos) + a.buildCost()
	for _, w := range a.workers {
		c += w.pipe.cost()
	}
	return c
}
