package harness

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"recycledb"
	"recycledb/internal/tpch"
	"recycledb/internal/workload"
)

// Fig. 9: "Detailed timeline of concurrent stream execution": 8 streams
// (one per core in the paper), 6 queries each (Q1, Q8, Q13, Q18, Q19, Q21)
// in per-stream shuffled order, with speculation on and the proactive
// variants for Q1 and Q19 (here: Proactive mode, which triggers the same
// rewrites). Every query either materializes or reuses its final result;
// queries sharing an in-flight materialization stall.

// Fig9Config sizes the trace run.
type Fig9Config struct {
	SF            float64
	Streams       int
	MaxConcurrent int
	Seed          int64
}

// Fig9Result carries the trace.
type Fig9Result struct {
	Cfg    Fig9Config
	Events []workload.Event
	Total  time.Duration
}

// RunFig9 executes the trace run.
func RunFig9(cfg Fig9Config) (*Fig9Result, error) {
	cat := LoadTPCH(TPCHConfig{SF: cfg.SF, Seed: cfg.Seed})
	eng := NewEngine(cat, recycledb.Proactive, 256<<20)
	patterns := []int{1, 8, 13, 18, 19, 21}
	streams := make([][]workload.Query, cfg.Streams)
	rng := rand.New(rand.NewSource(cfg.Seed))
	for s := range streams {
		order := rng.Perm(len(patterns))
		for _, pi := range order {
			q := patterns[pi]
			// All streams share parameters with positive probability:
			// draw from the pattern's domain with a stream-independent
			// rng so collisions occur, as in the throughput runs.
			p := tpch.NewParams(q, rng)
			streams[s] = append(streams[s], workload.Query{
				Label: fmt.Sprintf("Q%d", q),
				Plan:  tpch.BuildPA(p),
			})
		}
	}
	run := workload.Run(streams, cfg.MaxConcurrent, EngineExec(eng))
	if run.Errs > 0 {
		return nil, fmt.Errorf("harness: %d trace queries failed", run.Errs)
	}
	return &Fig9Result{Cfg: cfg, Events: run.Events, Total: run.Total}, nil
}

// String renders the timeline: one row per query event, ordered by start
// time, with a bar over the run's duration and the paper's shading encoded
// as M (materialized result), R (reused result), B (both), S (stalled),
// - (neither).
func (r *Fig9Result) String() string {
	events := append([]workload.Event(nil), r.Events...)
	sort.Slice(events, func(a, b int) bool {
		if events[a].Stream != events[b].Stream {
			return events[a].Stream < events[b].Stream
		}
		return events[a].Begin < events[b].Begin
	})
	const width = 72
	scale := func(d time.Duration) int {
		if r.Total == 0 {
			return 0
		}
		x := int(int64(d) * int64(width) / int64(r.Total))
		if x >= width {
			x = width - 1
		}
		return x
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 9 - concurrent trace: %d streams, total %s\n", r.Cfg.Streams, r.Total)
	b.WriteString("legend: M materialized, R reused, B both, S stalled, . running\n")
	for _, e := range events {
		line := make([]byte, width)
		for i := range line {
			line[i] = ' '
		}
		lo, hi := scale(e.Begin), scale(e.End)
		if hi <= lo {
			hi = lo + 1
		}
		mark := byte('.')
		switch {
		case e.Outcome.Reused && e.Outcome.Materialized:
			mark = 'B'
		case e.Outcome.Reused:
			mark = 'R'
		case e.Outcome.Materialized:
			mark = 'M'
		}
		if e.Outcome.Stalled {
			mark = 'S'
		}
		for i := lo; i < hi && i < width; i++ {
			line[i] = mark
		}
		fmt.Fprintf(&b, "s%d %-4s |%s|\n", e.Stream+1, e.Label, string(line))
	}
	// Summary counts, mirroring the paper's narrative.
	var mat, reuse, both, stall int
	for _, e := range events {
		switch {
		case e.Outcome.Reused && e.Outcome.Materialized:
			both++
		case e.Outcome.Reused:
			reuse++
		case e.Outcome.Materialized:
			mat++
		}
		if e.Outcome.Stalled {
			stall++
		}
	}
	fmt.Fprintf(&b, "summary: %d materialized-only, %d reused-only, %d both, %d stalled, %d total\n",
		mat, reuse, both, stall, len(events))
	return b.String()
}
