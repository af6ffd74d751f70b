package exec

import (
	"errors"

	"recycledb/internal/catalog"
	"recycledb/internal/expr"
	"recycledb/internal/vector"
)

// The fused push loop: the one implementation of a fragment interior.
//
// A fragment (plan.SpineNodes) is a source plus a chain of row-local nodes —
// select, project, join probe — optionally ending in an aggregation.
// fusedPipe compiles that chain into one consumer array driven by a single
// loop, per "Push vs. Pull-Based Loop Fusion in Query Engines" (PAPERS.md):
//
//   - the source pushes each batch straight through a flat []fusedStage array
//     (a tagged union — no interface dispatch between stages);
//   - filter stages refine ONE shared selection vector in place
//     (vector.RefineSel, or a compiled predicate kernel, see kernel.go)
//     instead of emitting a fresh selection per operator, and a conjunctive
//     predicate is split (expr.Conjuncts) so each conjunct evaluates only
//     over the previous conjuncts' survivors;
//   - project stages evaluate selection-aware into stage-owned pooled
//     scratch, producing dense batches;
//   - probe stages run the hash-join probe loop (join.go), gather matched
//     pairs once per input batch, and pass them on a vector's worth at a time.
//
// The source is either morsels of a base-table snapshot, read through the
// bare scan body (rangeScan) over one claimed morsel at a time, or any pull
// Operator: a CacheScan replay, a Store/WaitReuse-wrapped subtree, a table
// function, a Sort/TopN/Limit/Union, another fragment's root. Pull Next
// survives only there and at fragment roots (fragment.go), which is where
// the recycler decorates, stores, and replays.
//
// One driver, step, runs every pipe — the serial root's, each exchange
// worker's, each aggregation worker's — one source batch per call. It is
// the only code that claims morsels, and at each morsel's end it flushes the
// rows probe stages still hold before handing the morsel to the root's
// endMorsel hook, so a fragment emits the same batch sequence at any worker
// count.
//
// Selection-vector ownership: a selection attached by a filter lives in the
// morsel scan's own per-batch sel (refined in place — the scan rebuilds it
// every Next, never reading old contents), in the pipe's selBuf (a copy of
// a pull child's selection — the child's batch, header and selection alike,
// is never written through: cached batches are shared by every reader), or
// in the filter stage's selBuf when the input was dense. Probe and project
// stages always emit dense batches, so a selection never crosses a
// materializing stage and no stage ever aliases another stage's live
// selection storage.
//
// Row counts (the interior has no per-operator Next boundaries to count at):
// each stage counts the rows it emits and the pipe the rows its source
// yields. The fragment root collects those counters into per-node totals
// when it sees a morsel finish — the serial root at endMorsel, the exchange
// when its merge passes the morsel, an aggregation once its input is drained
// — and after every step of a pull-sourced pipe. The totals are all the
// executor reports for an interior node (foldOp, fragment.go); the recycler
// prices the node from them. Since only finished morsels count, a reader
// above the root mid-stream (a speculative store) sees the same counts at
// the same batch at every worker count, and a node reports the same total
// however many workers ran it.

// errFusedStopped aborts a fused drive from the sink when the fragment root
// is tearing down; it never escapes the fragment operator.
var errFusedStopped = errors.New("exec: fused pipeline stopped")

// stageKind discriminates fused consumer-chain stages.
type stageKind uint8

const (
	stageFilter stageKind = iota
	stageProject
	stageProbe
)

// fusedStage is one interior spine node compiled into the consumer chain.
type fusedStage struct {
	kind stageKind

	// filter: the compiled conjunct chain refining the shared selection.
	// Each step is either a typed predicate kernel (dispatching through a
	// function pointer bound at plan time) or a generic cloned conjunct
	// evaluated through expr.Eval (see kernel.go).
	steps  []filterStep
	flags  *vector.Vector // pooled bool scratch: generic predicate output
	selBuf []int32        // selection storage when the input is dense

	// project: selection-aware evaluation into stage scratch.
	exprs []expr.Expr
	out   *vector.Batch // pooled dense output

	// probe: shared-build hash-join probe.
	probe *fusedProbe

	types []vector.Type // output schema types (project/probe scratch shape)

	rowsOut int64 // rows emitted since the root last collected them
}

// fusedPipe is one worker's compiled fragment interior: a source, the flat
// stage chain, and the terminal sink. All fields are worker-goroutine-local
// while driving; the row counters go to the fragment root through
// takeRows, which the driving goroutine calls.
type fusedPipe struct {
	schema catalog.Schema // chain output schema (the spine root's)

	// The source: the fragment's morsel source (src != nil), read one
	// claimed morsel at a time through the bare scan body (the pipe owns the
	// batches it yields), or a pull child (child != nil; its batches are
	// read-only and reach the stages through view).
	src       *morselSource
	scan      rangeScan
	morsel    int         // morsel being drained (-1 = none)
	endMorsel func(m int) // the root's hook for a finished morsel (nil = none)
	child     Operator
	view      vector.Batch // pipe-local header over the child's current batch
	selBuf    []int32      // pipe-local copy of the child's selection

	stages []fusedStage
	sink   func(*vector.Batch) error

	srcRows int64 // rows the source yielded since the root last collected them
}

// takeRows adds the pipe's row counters to rows — rows[0] the source's,
// rows[k] stage k's — and zeroes them.
func (p *fusedPipe) takeRows(rows []int64) {
	rows[0] += p.srcRows
	p.srcRows = 0
	for i := range p.stages {
		rows[i+1] += p.stages[i].rowsOut
		p.stages[i].rowsOut = 0
	}
}

// open opens the source and acquires stage scratch from the pool; close
// releases it.
func (p *fusedPipe) open(ctx *Ctx) error {
	p.morsel = -1
	if p.child != nil {
		if err := p.child.Open(ctx); err != nil {
			return err
		}
	} else {
		p.scan.bind(p.src.snap)
		p.scan.pos, p.scan.end = 0, 0
	}
	for i := range p.stages {
		s := &p.stages[i]
		switch s.kind {
		case stageFilter:
			s.flags = ctx.pool().Get(vector.Bool, ctx.vecSize())
			if s.selBuf == nil {
				s.selBuf = make([]int32, 0, ctx.vecSize())
			}
		case stageProject:
			s.out = ctx.pool().GetBatch(s.types, ctx.vecSize())
		case stageProbe:
			j := s.probe
			j.built, j.passed = false, false
			j.out = ctx.pool().GetBatch(s.types, ctx.vecSize())
			j.probeH = ctx.pool().U64.Get(ctx.vecSize())
			j.lIdx = ctx.pool().I32.Get(ctx.vecSize())
			j.rIdx = ctx.pool().I32.Get(ctx.vecSize())
		}
	}
	return nil
}

// close returns stage scratch to the pool and closes a pull source. Shared
// builds are owned and closed by the fragment root, not per pipe.
func (p *fusedPipe) close(ctx *Ctx) error {
	for i := range p.stages {
		s := &p.stages[i]
		if s.flags != nil {
			ctx.pool().Put(s.flags)
			s.flags = nil
		}
		if s.out != nil {
			ctx.pool().PutBatch(s.out)
			s.out = nil
		}
		if j := s.probe; j != nil {
			ctx.pool().PutBatch(j.out)
			ctx.pool().U64.Put(j.probeH)
			ctx.pool().I32.Put(j.lIdx)
			ctx.pool().I32.Put(j.rIdx)
			j.out, j.probeH, j.lIdx, j.rIdx = nil, nil, nil, nil
		}
	}
	p.view = vector.Batch{}
	if p.child != nil {
		return p.child.Close(ctx)
	}
	return nil
}

// step is the one driver of every pipe, serial or parallel: it processes
// exactly one source batch per call, so a pausing sink (the pull adapter in
// FusedPipeline) holds at most one emitted batch and a consumer that stops
// pulling costs at most one more source batch. When the pull source — or,
// for a morsel source, the current morsel — is exhausted, each call flushes
// one probe stage's held rows; a finished morsel then goes to endMorsel and
// the next one is claimed, so every worker count flushes at the same morsel
// boundaries. done reports that nothing is left.
func (p *fusedPipe) step(ctx *Ctx) (done bool, err error) {
	if err := ctx.Interrupted(); err != nil {
		return false, err
	}
	for {
		b, err := p.next(ctx)
		if err != nil {
			return false, err
		}
		if b != nil {
			p.srcRows += int64(b.Len())
			return false, p.push(ctx, 0, b)
		}
		if more, err := p.flush(ctx); more || err != nil {
			return false, err
		}
		if p.src == nil {
			return true, nil
		}
		if p.morsel >= 0 && p.endMorsel != nil {
			p.endMorsel(p.morsel)
		}
		m, ok := p.src.claim()
		if !ok {
			p.morsel = -1
			return true, nil
		}
		p.morsel = m
		p.scan.pos, p.scan.end = p.src.bounds(m)
	}
}

// drain steps the pipe to the end of its input.
func (p *fusedPipe) drain(ctx *Ctx) error {
	for done := false; !done; {
		var err error
		if done, err = p.step(ctx); err != nil {
			return err
		}
	}
	return nil
}

// next returns the source's next non-empty batch in a header the stages may
// attach a selection to, or nil at the end of the pull source or of the
// current morsel.
func (p *fusedPipe) next(ctx *Ctx) (*vector.Batch, error) {
	if p.child == nil {
		return p.scan.Next(ctx)
	}
	for {
		b, err := p.child.Next(ctx)
		if err != nil || b == nil {
			return nil, err
		}
		if b.Len() == 0 {
			continue
		}
		p.view.Vecs, p.view.Sel = b.Vecs, b.Sel
		if b.Sel != nil && len(p.stages) > 0 && p.stages[0].kind == stageFilter {
			// The filter compacts an incoming selection in place.
			p.selBuf = append(p.selBuf[:0], b.Sel...)
			p.view.Sel = p.selBuf
		}
		return &p.view, nil
	}
}

// push drives one batch through stages[from:] and into the sink. The chain
// is linear: a probe passes on at most one (possibly oversized) batch per
// input batch, so no stage ever has more than one batch in flight, at most
// one batch reaches the sink, and no per-operator resumption state exists.
func (p *fusedPipe) push(ctx *Ctx, from int, b *vector.Batch) error {
	for i := from; i < len(p.stages); i++ {
		s := &p.stages[i]
		switch s.kind {
		case stageFilter:
			n := b.Len()
			for si := range s.steps {
				if n == 0 {
					break
				}
				step := &s.steps[si]
				if k := step.kern; k != nil {
					// Compiled kernel: one typed column loop refines the
					// shared selection directly — no flags vector, no
					// expression walk. A fused pair judges its conjuncts
					// in the same pass.
					v := b.Vecs[k.col]
					if b.Sel != nil {
						b.Sel = k.refine(k, v, b.Sel)
					} else {
						sel := k.dense(k, v, n, s.selBuf)
						s.selBuf = sel[:0]
						if len(sel) < n {
							b.Sel = sel
						}
					}
					n = b.Len()
					continue
				}
				s.flags.Reset()
				if err := step.pred.Eval(b, s.flags); err != nil {
					return err
				}
				if b.Sel != nil {
					b.Sel = vector.RefineSel(b.Sel, s.flags.B[:n])
				} else {
					sel := s.selBuf[:0]
					for r, ok := range s.flags.B[:n] {
						if ok {
							sel = append(sel, int32(r))
						}
					}
					s.selBuf = sel
					if len(sel) < n {
						b.Sel = sel
					}
				}
				n = b.Len()
			}
			if n == 0 {
				return nil
			}
			s.rowsOut += int64(n)
		case stageProject:
			out := s.out
			out.Reset()
			for c, e := range s.exprs {
				if err := e.Eval(b, out.Vecs[c]); err != nil {
					return err
				}
			}
			s.rowsOut += int64(out.Len())
			b = out
		case stageProbe:
			nb, err := p.pushProbe(ctx, s, b)
			if err != nil {
				return err
			}
			if nb == nil {
				return nil
			}
			b = nb
		}
	}
	return p.sink(b)
}

// flush passes the rows the first probe stage still holds (see pushProbe)
// down the rest of the chain — one stage per call, so that again at most one
// batch reaches the sink. more reports whether it found any.
func (p *fusedPipe) flush(ctx *Ctx) (more bool, err error) {
	for i := range p.stages {
		if j := p.stages[i].probe; j != nil && !j.passed && j.out.Len() > 0 {
			j.passed = true
			return true, p.push(ctx, i+1, j.out)
		}
	}
	return false, nil
}

// addFilter appends a filter stage for the bound predicate pred, counting
// its compiled kernels in rec.
func (p *fusedPipe) addFilter(pred expr.Expr, rec *StmtRecord) {
	p.stages = append(p.stages, fusedStage{
		kind: stageFilter, steps: compileSteps(expr.Conjuncts(pred), rec),
	})
}

// addProject appends a projection stage. The pipe takes exprs over: they
// carry evaluation scratch and must not be shared with another pipe.
func (p *fusedPipe) addProject(exprs []expr.Expr, schema catalog.Schema) {
	p.stages = append(p.stages, fusedStage{kind: stageProject, types: schema.Types(), exprs: exprs})
}

// addProbe appends a probe stage against sb; schema is the join's output.
func (p *fusedPipe) addProbe(sb *sharedBuild, schema catalog.Schema) {
	p.stages = append(p.stages, fusedStage{kind: stageProbe, types: schema.Types(), probe: &fusedProbe{sb: sb}})
}

// FusedPipeline is the serial fragment root for a pipeline: the push-to-pull
// adapter. Its sink holds the single batch each step emits (the chain is
// linear, so a step produces at most one), and Next hands it up — valid
// until the following Next, per the operator contract, because the chain
// does not advance until then. No exchange, no copies, one goroutine.
type FusedPipeline struct {
	*fragRoot
	pipe    *fusedPipe
	emitted *vector.Batch
	closed  bool
}

func newFusedPipeline(root *fragRoot, pipe *fusedPipe) *FusedPipeline {
	root.sizeCounts(pipe)
	f := &FusedPipeline{fragRoot: root, pipe: pipe}
	pipe.sink = func(b *vector.Batch) error {
		f.emitted = b
		return nil
	}
	if root.src != nil {
		// Progress and the row counts advance at finished morsels.
		pipe.endMorsel = func(m int) {
			root.src.advance(m)
			pipe.takeRows(root.counted)
		}
	}
	return f
}

// Open implements Operator.
func (f *FusedPipeline) Open(ctx *Ctx) error {
	f.closed = false
	f.emitted = nil
	if err := f.openBuilds(ctx); err != nil {
		return err
	}
	return f.pipe.open(ctx)
}

// Next implements Operator.
func (f *FusedPipeline) Next(ctx *Ctx) (*vector.Batch, error) {
	if err := ctx.Interrupted(); err != nil {
		return nil, err
	}
	for {
		if b := f.emitted; b != nil {
			f.emitted = nil
			f.rows += int64(b.Len())
			return b, nil
		}
		done, err := f.pipe.step(ctx)
		if f.src == nil {
			f.pipe.takeRows(f.counted) // a pull source has no morsels
		}
		if err != nil {
			return nil, err
		}
		if done && f.emitted == nil {
			return nil, nil
		}
	}
}

// Close implements Operator.
func (f *FusedPipeline) Close(ctx *Ctx) error {
	if f.closed {
		return nil
	}
	f.closed = true
	f.emitted = nil
	return f.closeBuilds(ctx, f.pipe.close(ctx))
}

// Progress implements Operator: the source's.
func (f *FusedPipeline) Progress() float64 {
	if f.pipe.child != nil {
		return f.pipe.child.Progress()
	}
	return f.src.progress()
}
