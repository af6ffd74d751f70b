package exec

import (
	"cmp"
	"sort"
	"sync"

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

// accCol is one aggregate's accumulators as a typed column, one slot per
// group: val holds the running count, sum, min or max in the aggregate's
// output type (avg: the float sum, with the row count in n), and set marks
// the min/max slots that hold a value. Only a string min/max column holds
// pointers, so a growing directory gives the GC nothing to scan, and
// emission is a bulk copy of val.
type accCol struct {
	val vector.Vector
	n   []int64 // avg only
	set []bool  // min and max only
}

// grow extends the column to groups zeroed slots.
func (c *accCol) grow(ag AggExpr, groups int) {
	k := groups - c.val.Len()
	if k <= 0 {
		return
	}
	switch c.val.Typ {
	case vector.Int64, vector.Date:
		c.val.I64 = vector.GrowI64(c.val.I64, k)
	case vector.Float64:
		c.val.F64 = vector.GrowF64(c.val.F64, k)
	case vector.String:
		c.val.Str = vector.GrowStr(c.val.Str, k)
	case vector.Bool:
		c.val.B = vector.GrowBool(c.val.B, k)
	}
	switch ag.Func {
	case plan.Avg:
		c.n = vector.GrowI64(c.n, k)
	case plan.Min, plan.Max:
		c.set = vector.GrowBool(c.set, k)
	}
}

// update folds row i of arg (the batch's evaluated argument, dense) into
// slot gids[i], for every row of the batch: one typed loop per aggregate.
// Rows reach each slot in input order, so float sums are bit-identical to a
// row-at-a-time fold.
func (c *accCol) update(ag AggExpr, gids []int32, arg *vector.Vector) {
	switch ag.Func {
	case plan.Count:
		v := c.val.I64
		for _, g := range gids {
			v[g]++
		}
	case plan.Sum:
		if c.val.Typ == vector.Float64 {
			sumInto(c.val.F64, gids, arg.F64)
		} else {
			sumInto(c.val.I64, gids, arg.I64)
		}
	case plan.Avg:
		sumInto(c.val.F64, gids, arg.F64)
		n := c.n
		for _, g := range gids {
			n[g]++
		}
	case plan.Min, plan.Max:
		c.minMax(ag, gids, arg, nil)
	}
}

// merge folds slot g of src into slot dst[g], for every g: counts and sums
// add, avg adds both halves, min/max compare where src holds a value.
func (c *accCol) merge(ag AggExpr, dst []int32, src *accCol) {
	switch ag.Func {
	case plan.Count, plan.Sum, plan.Avg:
		if c.val.Typ == vector.Float64 {
			sumInto(c.val.F64, dst, src.val.F64)
		} else {
			sumInto(c.val.I64, dst, src.val.I64)
		}
		if ag.Func == plan.Avg {
			sumInto(c.n, dst, src.n)
		}
	case plan.Min, plan.Max:
		c.minMax(ag, dst, &src.val, src.set)
	}
}

// minMax folds x[i] into slot gids[i] for every i whose xset bit is on (nil:
// every i) — the typed dispatch of foldMinMax.
func (c *accCol) minMax(ag AggExpr, gids []int32, x *vector.Vector, xset []bool) {
	min := ag.Func == plan.Min
	switch c.val.Typ {
	case vector.Int64, vector.Date:
		foldMinMax(c.val.I64, c.set, gids, x.I64, xset, min)
	case vector.Float64:
		foldMinMax(c.val.F64, c.set, gids, x.F64, xset, min)
	case vector.String:
		foldMinMax(c.val.Str, c.set, gids, x.Str, xset, min)
	case vector.Bool:
		foldMinMaxBool(c.val.B, c.set, gids, x.B, xset, min)
	}
}

// sumInto adds x[i] to v[gids[i]] for every i.
func sumInto[T int64 | float64](v []T, gids []int32, x []T) {
	x = x[:len(gids)]
	for i, g := range gids {
		v[g] += x[i]
	}
}

// foldMinMax keeps, per slot, the least (min) or greatest value offered. A
// slot takes its first value as is, so a NaN there sticks — it compares
// false against everything after it — exactly as a row-at-a-time fold does.
func foldMinMax[T cmp.Ordered](v []T, set []bool, gids []int32, x []T, xset []bool, min bool) {
	x = x[:len(gids)]
	for i, g := range gids {
		if xset != nil && !xset[i] {
			continue
		}
		if !set[g] || (min && x[i] < v[g]) || (!min && x[i] > v[g]) {
			v[g] = x[i]
			set[g] = true
		}
	}
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
// the stored key rows) plus one typed accumulator column per aggregate. A
// batch is absorbed in two passes: every row is resolved to its group id,
// then each aggregate runs one typed update loop over the batch. No per-row
// key bytes are encoded or allocated. Partial states built over disjoint
// input partitions merge losslessly with mergeFrom — count/sum/avg/min/max
// accumulators all carry enough to combine.
type aggState struct {
	groupCols []int // group-by column indexes in the input schema
	aggs      []AggExpr
	scalar    bool

	table     oaTable
	groupHash []uint64      // per group
	keyRows   *vector.Batch // one row per group: the group-by column values
	keyCols   []int         // 0..len(groupCols)-1, the keyRows columns
	accs      []accCol      // per aggregate
	nGroups   int

	rowH   []uint64         // per-batch scratch: group hashes
	gids   []int32          // per-batch scratch: group ids
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
	st.accs = make([]accCol, len(st.aggs))
	for a, ag := range st.aggs {
		st.accs[a].val.Typ = ag.Typ
	}
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

// lookupGroup resolves the group id for physical row r of in (whose group
// hash is gh), inserting a new group if needed. inCols maps the state's key
// positions to in's columns; ord is the row's stream position (recorded for
// new groups when trackOrd is on). A new group's accumulator slots appear
// at the next growAccs.
func (st *aggState) lookupGroup(gh uint64, in *vector.Batch, r int, inCols []int, ord groupOrd) int32 {
	s := st.table.slot(gh)
	for {
		g := st.table.buckets[s]
		if g < 0 {
			break
		}
		if st.groupHash[g] == gh &&
			keyRowsEqual(st.keyRows, int(g), st.keyCols, in, r, inCols) {
			return g
		}
		s = (s + 1) & st.table.mask
	}
	// New group: record its key row and hash.
	g := int32(st.nGroups)
	st.nGroups++
	st.groupHash = append(st.groupHash, gh)
	for k, c := range inCols {
		st.keyRows.Vecs[k].AppendFrom(in.Vecs[c], r)
	}
	if st.trackOrd {
		st.ord = append(st.ord, ord)
	}
	st.table.buckets[s] = g
	if st.nGroups*4 >= len(st.table.buckets)*3 {
		st.grow()
	}
	return g
}

// growAccs gives every group its accumulator slots.
func (st *aggState) growAccs() {
	for a, ag := range st.aggs {
		st.accs[a].grow(ag, st.nGroups)
	}
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

// scratchIDs returns the group-id scratch resized to n.
func (st *aggState) scratchIDs(n int) []int32 {
	if cap(st.gids) < n {
		st.gids = make([]int32, n)
	}
	return st.gids[:n]
}

// absorb folds one input batch, from morsel m of the input, into the state.
func (st *aggState) absorb(in *vector.Batch, m int) error {
	n := in.Len()
	if n == 0 {
		return nil
	}
	if m != st.curMorsel {
		st.curMorsel, st.rowBase = m, 0 // the order clock restarts per morsel
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
	gids := st.scratchIDs(n)
	if st.scalar {
		st.ensureScalarGroup()
		clear(gids)
	} else {
		st.resolveGroups(in, gids)
	}
	for a, ag := range st.aggs {
		st.accs[a].update(ag, gids, st.argVec[a])
	}
	st.rowBase += int64(n)
	return nil
}

// resolveGroups writes the group id of every row of in to gids, creating
// groups (and their accumulator slots) as needed.
func (st *aggState) resolveGroups(in *vector.Batch, gids []int32) {
	n := len(gids)
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
	for i := range gids {
		r := i
		if sel != nil {
			r = int(sel[i])
		}
		gids[i] = st.lookupGroup(st.rowH[i], in, r, st.groupCols,
			groupOrd{st.curMorsel, st.rowBase + int64(i)})
	}
	st.growAccs()
}

// ensureScalarGroup guarantees the single output row of a scalar
// aggregation exists (even over empty input).
func (st *aggState) ensureScalarGroup() {
	if st.nGroups == 0 {
		st.nGroups = 1
		st.growAccs()
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
	dst := st.scratchIDs(src.nGroups)
	if st.scalar {
		st.ensureScalarGroup()
		dst[0] = 0
	} else {
		for g := range dst {
			var ord groupOrd
			if src.trackOrd {
				ord = src.ord[g]
			}
			d := st.lookupGroup(src.groupHash[g], src.keyRows, g, src.keyCols, ord)
			dst[g] = d
			if st.trackOrd && src.trackOrd && src.ord[g].less(st.ord[d]) {
				st.ord[d] = src.ord[g]
			}
		}
		st.growAccs()
	}
	for a, ag := range st.aggs {
		st.accs[a].merge(ag, dst, &src.accs[a])
	}
}

// foldMinMaxBool is foldMinMax over bools, ordered false < true.
func foldMinMaxBool(v, set []bool, gids []int32, x, xset []bool, min bool) {
	x = x[:len(gids)]
	for i, g := range gids {
		if xset != nil && !xset[i] {
			continue
		}
		if !set[g] || (min && !x[i] && v[g]) || (!min && x[i] && !v[g]) {
			v[g] = x[i]
			set[g] = true
		}
	}
}

// emitRange appends groups [lo, hi) in group-id order: keys and
// accumulators column-wise.
func (st *aggState) emitRange(out *vector.Batch, lo, hi int) {
	nk := len(st.groupCols)
	for k := 0; k < nk; k++ {
		out.Vecs[k].AppendRange(st.keyRows.Vecs[k], lo, hi)
	}
	for a, ag := range st.aggs {
		c, v := &st.accs[a], out.Vecs[nk+a]
		if ag.Func != plan.Avg {
			v.AppendRange(&c.val, lo, hi)
			continue
		}
		dst := growTailF64(v, hi-lo)
		for i := range dst {
			dst[i] = avgOf(c.val.F64[lo+i], c.n[lo+i])
		}
	}
}

// emitIndex appends the groups listed in idx, in idx order.
func (st *aggState) emitIndex(out *vector.Batch, idx []int32) {
	nk := len(st.groupCols)
	for k := 0; k < nk; k++ {
		out.Vecs[k].AppendGather(st.keyRows.Vecs[k], idx)
	}
	for a, ag := range st.aggs {
		c, v := &st.accs[a], out.Vecs[nk+a]
		if ag.Func != plan.Avg {
			v.AppendGather(&c.val, idx)
			continue
		}
		dst := growTailF64(v, len(idx))
		for i, g := range idx {
			dst[i] = avgOf(c.val.F64[g], c.n[g])
		}
	}
}

// growTailF64 extends v by n rows and returns the writable tail.
func growTailF64(v *vector.Vector, n int) []float64 {
	v.F64 = vector.GrowF64(v.F64, n)
	return v.F64[len(v.F64)-n:]
}

// avgOf finalizes an average; an empty group (scalar avg over no rows)
// averages to 0.
func avgOf(sum float64, n int64) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
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
	*fragRoot
	workers []*aggWorker

	final  *aggState // the lone worker's table, or merged
	merged aggState
	order  []int32 // several workers: emission order
	out    *vector.Batch

	closed, built bool
	emit          int

	failMu  sync.Mutex
	failErr error
}

// newAggOp assembles the aggregation of aggs grouped by groupCols (column
// indexes in the pipes' output) over its input pipes, one worker each.
func newAggOp(root *fragRoot, groupCols []int, aggs []AggExpr, pipes []*fusedPipe) *AggOp {
	root.sizeCounts(pipes[0])
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
		p.sink = func(b *vector.Batch) error { return w.st.absorb(b, p.morsel) }
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
		if err := w.pipe.drain(&w.wctx); err != nil {
			return err
		}
	} else {
		var wg sync.WaitGroup
		for _, w := range a.workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := w.pipe.drain(&w.wctx); err != nil {
					a.fail(err)
				}
			}()
		}
		wg.Wait()
		if a.failErr != nil {
			return a.failErr
		}
		for _, w := range a.workers {
			a.merged.mergeFrom(&w.st)
		}
	}
	for _, w := range a.workers {
		w.pipe.takeRows(a.counted)
	}
	// Scalar aggregation over empty input still yields one row.
	if a.final.scalar {
		a.final.ensureScalarGroup()
	}
	if a.final == &a.merged {
		// Emission order: ascending first occurrence == discovery order.
		a.order = make([]int32, a.merged.nGroups)
		for i := range a.order {
			a.order[i] = int32(i)
		}
		sort.Slice(a.order, func(i, j int) bool {
			return a.merged.ord[a.order[i]].less(a.merged.ord[a.order[j]])
		})
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
