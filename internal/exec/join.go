package exec

import (
	"math/bits"
	"sync"

	"recycledb/internal/catalog"
	"recycledb/internal/plan"
	"recycledb/internal/vector"
)

// Hash join: one build (sharedBuild), one probe loop (pushProbe). The build
// drains the right input into a dense columnar arena plus a chained
// open-addressing directory; a probe stage of a fused pipe hashes each left
// batch whole-column-at-a-time (hashColumns), walks the chains comparing
// stored hashes first and verifying with typed column comparators — no
// per-row key encoding or allocation anywhere on the probe path — and
// materializes the matched (probe, build) index pairs column-wise with the
// gather kernels once per input batch. Inner, left-semi, left-anti and
// left-outer semantics are supported. The engine has no NULLs: left-outer
// zero-fills unmatched right columns and appends a 0/1 match column
// (plan.MatchCol).

// sharedBuild is a hash-join build table shared by all probe pipes of a
// fragment: one dense arena in build-input arrival order plus a
// hash-partitioned chain directory. The build-side subplan is drained once
// (by whichever pipe probes first); chain construction then runs one
// goroutine per partition — partitions own disjoint row sets, so the
// shared next array is written race-free — or inline when there is only one.
// Partitioning preserves arrival order within each chain, so probes see
// matches in build-input arrival order whatever the partition count.
type sharedBuild struct {
	jt        plan.JoinType
	child     Operator // the build side
	leftCols  []int    // key columns in the probe input
	rightCols []int    // key columns in the build input
	leftWidth int      // probe input column count
	fastHash  bool     // single-column int64 key hashing

	once    sync.Once
	err     error
	arena   *vector.Batch // global arrival order; aliased by all workers
	hash    []uint64
	next    []int32
	parts   []oaTable
	shift   uint
	closeMu sync.Mutex
	closed  bool
}

// buildJoin builds the shared state of join node pn for a fragment of
// workers pipes. Its right (build-side) subplan goes through the normal
// Build path — so recycler decorations inside it keep working, and large
// build subtrees parallelize on their own.
func buildJoin(ctx *Ctx, pn *plan.Node, dec Decorations, stats map[*plan.Node]NodeStats, workers int) (*sharedBuild, error) {
	left := pn.Children[0].Schema()
	lcols, err := columnIndexes(left, pn.LeftKeys, "join key")
	if err != nil {
		return nil, err
	}
	rcols, err := columnIndexes(pn.Children[1].Schema(), pn.RightKeys, "join key")
	if err != nil {
		return nil, err
	}
	right, err := Build(ctx, pn.Children[1], dec, stats)
	if err != nil {
		return nil, err
	}
	return newSharedBuild(pn.JT, left, right, lcols, rcols, workers), nil
}

// newSharedBuild assembles a join over probe-side schema left and build-side
// operator right, keyed on leftCols = rightCols, for a fragment of workers
// probing pipes.
func newSharedBuild(jt plan.JoinType, left catalog.Schema, right Operator, leftCols, rightCols []int, workers int) *sharedBuild {
	sb := &sharedBuild{jt: jt, child: right, leftCols: leftCols, rightCols: rightCols, leftWidth: len(left)}
	// Partitions: enough for the fragment's workers to build chains
	// concurrently, a power of two so the partition is the hash's top bits
	// (independent of the bucket index, which uses the low bits).
	k := bits.Len(uint(max(workers, 1) - 1))
	sb.parts, sb.shift = make([]oaTable, 1<<k), uint(64-k)
	// The single-column int64 hash fast path is a per-join decision (build
	// and probe hashes must use one scheme), made here where both sides'
	// key types are known.
	if len(leftCols) == 1 && fastHashType(left[leftCols[0]].Typ) &&
		fastHashType(right.Schema()[rightCols[0]].Typ) {
		sb.fastHash = true
		fastHashEngaged.Add(1)
	}
	return sb
}

// ensure runs the build exactly once (first prober wins; the rest observe
// the completed table through the Once barrier).
func (b *sharedBuild) ensure(ctx *Ctx) error {
	b.once.Do(func() { b.err = b.run(ctx) })
	return b.err
}

func (b *sharedBuild) run(ctx *Ctx) error {
	b.arena = ctx.pool().GetBatch(b.child.Schema().Types(), ctx.vecSize())
	var hs []uint64
	for {
		batch, err := b.child.Next(ctx)
		if err != nil {
			return err
		}
		if batch == nil {
			break
		}
		n := batch.Len()
		if n == 0 {
			continue
		}
		b.arena.AppendBatch(batch)
		if cap(hs) < n {
			hs = make([]uint64, n)
		}
		hs = hs[:n]
		if b.fastHash {
			hashI64Fast(batch.Vecs[b.rightCols[0]], batch.Sel, hs)
		} else {
			hashColumns(batch, b.rightCols, hs)
		}
		b.hash = append(b.hash, hs...)
	}
	rows := len(b.hash)
	joinBuildRows.Add(int64(rows))
	b.next = make([]int32, rows)

	nParts := len(b.parts)
	counts := make([]int, nParts)
	for _, h := range b.hash {
		counts[h>>b.shift]++
	}
	chain := func(p int) {
		t := &b.parts[p]
		t.init(counts[p])
		ph := uint64(p)
		// Insert in reverse arrival order so each chain lists build rows
		// oldest-first: matches emit in build-input arrival order.
		for r := rows - 1; r >= 0; r-- {
			h := b.hash[r]
			if h>>b.shift != ph {
				continue
			}
			s := t.slot(h)
			b.next[r] = t.buckets[s]
			t.buckets[s] = int32(r)
		}
	}
	if nParts == 1 {
		chain(0)
		return nil
	}
	var wg sync.WaitGroup
	for p := 0; p < nParts; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			chain(p)
		}()
	}
	wg.Wait()
	return nil
}

// close releases the build-side subplan and the arena. Safe to call from
// the fragment root's teardown whether or not the build ever ran.
func (b *sharedBuild) close(ctx *Ctx) error {
	b.closeMu.Lock()
	defer b.closeMu.Unlock()
	if b.closed {
		return nil
	}
	b.closed = true
	if b.arena != nil {
		ctx.pool().PutBatch(b.arena)
		b.arena = nil
	}
	b.parts = nil
	b.next = nil
	b.hash = nil
	return b.child.Close(ctx)
}

// fusedProbe is a probe stage's state: the probe loop's scratch against a
// sharedBuild, emitting pairs gathered once per input batch.
type fusedProbe struct {
	sb     *sharedBuild
	built  bool
	passed bool          // out went downstream; reset it before gathering again
	out    *vector.Batch // pooled output batch
	probeH []uint64
	lIdx   []int32
	rIdx   []int32
}

// pushProbe probes one input batch against the shared build. Matches emit in
// probe-row × build-arrival order; pairs are gathered into the stage's output
// once per input batch, before the source overwrites the probe rows. The
// output is passed downstream (returned) once it holds a vector's worth of
// rows and held (nil) until then — a selective join would otherwise turn
// every input batch into a sliver that each store, exchange copy and cached
// replay pays for per batch; fusedPipe.flush drains the remainder at end of
// input.
func (p *fusedPipe) pushProbe(ctx *Ctx, s *fusedStage, b *vector.Batch) (*vector.Batch, error) {
	j := s.probe
	sb := j.sb
	if !j.built {
		if err := sb.ensure(ctx); err != nil {
			return nil, err
		}
		j.built = true
	}
	n := b.Len()
	if cap(j.probeH) < n {
		j.probeH = make([]uint64, n)
	}
	j.probeH = j.probeH[:n]
	if sb.fastHash {
		hashI64Fast(b.Vecs[sb.leftCols[0]], b.Sel, j.probeH)
	} else {
		hashColumns(b, sb.leftCols, j.probeH)
	}
	out, jt := j.out, sb.jt
	if j.passed {
		out.Reset()
		j.passed = false
	}
	for row := 0; row < n; row++ {
		r := b.RowIdx(row)
		h := j.probeH[row]
		t := &sb.parts[h>>sb.shift]
		cand := t.buckets[t.slot(h)]
		matched := false
		for cand >= 0 {
			c := cand
			cand = sb.next[c]
			if sb.hash[c] != h ||
				!keyRowsEqual(b, r, sb.leftCols, sb.arena, int(c), sb.rightCols) {
				continue
			}
			matched = true
			if jt == plan.LeftSemi || jt == plan.LeftAnti {
				break // one match decides; skip the rest of the chain
			}
			j.lIdx = append(j.lIdx, int32(r))
			j.rIdx = append(j.rIdx, c)
		}
		// Chain exhausted: semi emits matched rows, anti and outer the
		// unmatched ones (build row -1: left-only / zero-fill).
		if matched == (jt == plan.LeftSemi) && jt != plan.Inner {
			j.lIdx = append(j.lIdx, int32(r))
			j.rIdx = append(j.rIdx, -1)
		}
	}
	flushJoinPairs(out, b, sb.arena, j.lIdx, j.rIdx, sb.leftWidth, jt)
	s.rowsOut += int64(len(j.lIdx))
	j.lIdx = j.lIdx[:0]
	j.rIdx = j.rIdx[:0]
	if out.Len() < ctx.vecSize() {
		return nil, nil
	}
	j.passed = true
	return out, nil
}

// flushJoinPairs materializes (probe, build) index pairs into out with the
// columnar gather kernels: probe columns from probe rows lIdx, build
// columns from arena rows rIdx (-1 = zero-fill for outer joins).
func flushJoinPairs(out, probe, arena *vector.Batch, lIdx, rIdx []int32, leftWidth int, jt plan.JoinType) {
	if len(lIdx) == 0 {
		return
	}
	for c := 0; c < leftWidth; c++ {
		out.Vecs[c].AppendGather(probe.Vecs[c], lIdx)
	}
	if jt == plan.Inner || jt == plan.LeftOuter {
		for c := range arena.Vecs {
			if jt == plan.Inner {
				// Inner joins never queue unmatched rows: take the
				// branch-free gather kernel.
				out.Vecs[leftWidth+c].AppendGather(arena.Vecs[c], rIdx)
			} else {
				appendGatherOrZero(out.Vecs[leftWidth+c], arena.Vecs[c], rIdx)
			}
		}
		if jt == plan.LeftOuter {
			mv := out.Vecs[len(out.Vecs)-1]
			for _, r := range rIdx {
				if r >= 0 {
					mv.AppendInt64(1)
				} else {
					mv.AppendInt64(0)
				}
			}
		}
	}
}

// appendGatherOrZero gathers src rows by index, zero-filling where the
// index is negative (unmatched outer rows).
func appendGatherOrZero(v, src *vector.Vector, idx []int32) {
	switch v.Typ {
	case vector.Int64, vector.Date:
		out := v.I64
		for _, r := range idx {
			if r >= 0 {
				out = append(out, src.I64[r])
			} else {
				out = append(out, 0)
			}
		}
		v.I64 = out
	case vector.Float64:
		out := v.F64
		for _, r := range idx {
			if r >= 0 {
				out = append(out, src.F64[r])
			} else {
				out = append(out, 0)
			}
		}
		v.F64 = out
	case vector.String:
		out := v.Str
		for _, r := range idx {
			if r >= 0 {
				out = append(out, src.Str[r])
			} else {
				out = append(out, "")
			}
		}
		v.Str = out
	case vector.Bool:
		out := v.B
		for _, r := range idx {
			if r >= 0 {
				out = append(out, src.B[r])
			} else {
				out = append(out, false)
			}
		}
		v.B = out
	}
}
