package exec

import (
	"sync/atomic"
	"time"
)

// StmtRecord is one statement's record; recycledb.QueryStats is its public
// view and documents the fields they share. Each count is written once, by
// the layer that observes it: the rewriter writes the planned decisions
// before execution starts, a store's completion callback Materialized, the
// executor (through Ctx.Record) the engagement counts, and the engine's
// cursor (recycledb.Rows) the times and Rows, under its lock.
//
// What execution writes is atomic: a join's build side runs in whichever
// pipe probes first, a worker goroutine in a parallel fragment, so operators
// under it count and complete stores off the statement's goroutine while
// the record may be read.
type StmtRecord struct {
	Reused, SubsumptionReused, Stores, SpecStores, Waits int
	ProactiveApplied                                     bool
	Materialized                                         atomic.Int64

	// Engagement, for tests to assert a path engaged: fragments compiled,
	// those split across workers, conjuncts compiled to predicate kernels
	// (per pipe), operators on the int64 hash fast path, and rows inserted
	// into hash-join build tables.
	FusedFragments, ParallelFragments, PredKernels, FastHash, JoinBuildRows atomic.Int64

	Total, Matching, Execution time.Duration
	Rows                       int
}
