// Package workload is test-and-benchmark support; no shipped command links
// it. It holds the paper's stream protocol (§V) — Run: each stream issues its
// queries sequentially, streams run concurrently, and a global admission
// limit (12 in the paper) bounds simultaneously executing queries, with a
// per-query event trace (reuse / materialization / stall) from which Fig. 9's
// timeline and Figs. 7-8's aggregates are derived — and the fixture types the
// golden and race suites draw queries and writes from (Query, Mix, WriteFunc).
// Performance numbers come from benchmark/run.sh, not from here.
package workload

import (
	"math/rand"
	"sync"
	"time"

	"recycledb/internal/plan"
)

// Query is one workload query instance.
type Query struct {
	// Label identifies the pattern (e.g. "Q1", "cone-join-dominant").
	Label string
	// Plan is the query tree. The driver hands it to Exec untouched.
	Plan *plan.Node
}

// MixEntry is one weighted query pattern of a mix. Make returns the plan for
// one query instance, drawing any parameters only from the supplied RNG so
// runs are reproducible. Engines treat plans as read-only (execution clones
// before resolving), so Make may hand out the same plan instance repeatedly —
// that sharing is what lets concurrent clients collide on identical queries.
type MixEntry struct {
	Label  string
	Weight int
	Make   func(rng *rand.Rand) *plan.Node
}

// Mix is a weighted set of query patterns (e.g. TPC-H refresh dashboards
// mixed with SkyServer cone searches).
type Mix []MixEntry

// Pick draws one query from the mix.
func (m Mix) Pick(rng *rand.Rand) Query {
	total := 0
	for _, e := range m {
		total += e.Weight
	}
	if total <= 0 {
		return Query{}
	}
	v := rng.Intn(total)
	for _, e := range m {
		if v < e.Weight {
			return Query{Label: e.Label, Plan: e.Make(rng)}
		}
		v -= e.Weight
	}
	return Query{}
}

// WriteFunc performs one write operation (an epoch-committing insert or
// delete) on behalf of a client. Writes drawn only from rng stay
// reproducible per client.
type WriteFunc func(client int, rng *rand.Rand) error

// Outcome describes what the engine did for one query.
type Outcome struct {
	Reused       bool
	Materialized bool
	Stalled      bool
}

// ExecFunc runs one query and reports its outcome.
type ExecFunc func(stream int, q Query) (Outcome, error)

// Event is one executed query in the trace.
type Event struct {
	Stream int
	Label  string
	// Start and End are offsets from the run start. Start is when the
	// query was issued (queueing included); Begin is when it started
	// executing.
	Start, Begin, End time.Duration
	Outcome           Outcome
	Err               error
}

// Result aggregates a run.
type Result struct {
	// StreamTimes is the paper's per-stream metric: first query issued to
	// last result received.
	StreamTimes []time.Duration
	// Events in issue order per stream (across streams unordered).
	Events []Event
	// PerLabel collects execution times (queueing excluded) per pattern.
	PerLabel map[string][]time.Duration
	// Total is the wall time of the whole run.
	Total time.Duration
	// Errs counts failed queries.
	Errs int
}

// Run executes the streams with at most maxConcurrent queries in flight.
func Run(streams [][]Query, maxConcurrent int, exec ExecFunc) *Result {
	if maxConcurrent <= 0 {
		maxConcurrent = 12
	}
	sem := make(chan struct{}, maxConcurrent)
	start := time.Now()
	res := &Result{
		StreamTimes: make([]time.Duration, len(streams)),
		PerLabel:    make(map[string][]time.Duration),
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for si, queries := range streams {
		wg.Add(1)
		go func(si int, queries []Query) {
			defer wg.Done()
			streamStart := time.Now()
			for _, q := range queries {
				issued := time.Since(start)
				sem <- struct{}{}
				begin := time.Since(start)
				out, err := exec(si, q)
				end := time.Since(start)
				<-sem
				mu.Lock()
				res.Events = append(res.Events, Event{
					Stream: si, Label: q.Label,
					Start: issued, Begin: begin, End: end,
					Outcome: out, Err: err,
				})
				if err != nil {
					res.Errs++
				} else {
					res.PerLabel[q.Label] = append(res.PerLabel[q.Label], end-begin)
				}
				mu.Unlock()
			}
			res.StreamTimes[si] = time.Since(streamStart)
		}(si, queries)
	}
	wg.Wait()
	res.Total = time.Since(start)
	return res
}

// AvgStreamTime returns the mean per-stream evaluation time (Fig. 7's
// y-axis).
func (r *Result) AvgStreamTime() time.Duration {
	if len(r.StreamTimes) == 0 {
		return 0
	}
	var sum time.Duration
	for _, t := range r.StreamTimes {
		sum += t
	}
	return sum / time.Duration(len(r.StreamTimes))
}

// AvgLabelTime returns the mean execution time of one pattern (Fig. 8's
// y-axis input).
func (r *Result) AvgLabelTime(label string) time.Duration {
	ts := r.PerLabel[label]
	if len(ts) == 0 {
		return 0
	}
	var sum time.Duration
	for _, t := range ts {
		sum += t
	}
	return sum / time.Duration(len(ts))
}
