// Package harness is test-and-benchmark support; no shipped command links
// it. It holds two things. The runners for the paper's figures that have no
// cell in benchmark/ yet — RunFig6, RunThroughput (Figs. 7 + 8), RunFig9 —
// each reachable only through its Benchmark* in the root bench_test.go and
// its smoke test here; absolute numbers differ from the paper's testbed (a
// laptop-scale generated database instead of 30 GB on 8 cores), so the
// shapes — who wins, by roughly what factor, where crossovers fall — are
// what they reproduce. And the fixtures the golden, stress and race suites
// share: catalogs, query mixes, write generators, the mode list.
// Performance numbers come from benchmark/run.sh, not from here.
package harness

import (
	"context"
	"fmt"
	"strings"
	"time"

	"recycledb"
	"recycledb/internal/catalog"
	"recycledb/internal/tpch"
	"recycledb/internal/workload"
)

// TPCHConfig sizes the throughput experiments.
type TPCHConfig struct {
	// SF is the TPC-H scale factor (the paper used 30; 0.01-0.1 here).
	SF float64
	// Streams are the stream counts to sweep (paper: 4, 16, 64, 256).
	Streams []int
	// MaxConcurrent is the query admission limit (paper: 12).
	MaxConcurrent int
	// CacheBytes bounds the recycler cache.
	CacheBytes int64
	Seed       int64
}

// Modes under evaluation, in the paper's order.
var Modes = []recycledb.Mode{
	recycledb.Off, recycledb.History, recycledb.Speculative, recycledb.Proactive,
}

// LoadTPCH generates the TPC-H catalog once.
func LoadTPCH(cfg TPCHConfig) *catalog.Catalog {
	cat := catalog.New()
	tpch.Generate(cat, cfg.SF, cfg.Seed)
	return cat
}

// NewEngine builds an engine in the given mode over a shared catalog.
func NewEngine(cat *catalog.Catalog, mode recycledb.Mode, cacheBytes int64) *recycledb.Engine {
	return recycledb.NewWithCatalog(recycledb.Config{Mode: mode, CacheBytes: cacheBytes}, cat)
}

// EngineExec adapts an engine to the workload driver.
func EngineExec(e *recycledb.Engine) workload.ExecFunc {
	return func(stream int, q workload.Query) (workload.Outcome, error) {
		r, err := e.ExecuteContext(context.Background(), q.Plan)
		if err != nil {
			return workload.Outcome{}, err
		}
		return workload.Outcome{
			Reused:       r.Stats.Reused > 0 || r.Stats.SubsumptionReused > 0,
			Materialized: r.Stats.Materialized > 0,
			Stalled:      r.Stats.Waits > 0,
		}, nil
	}
}

// TPCHStreams turns qgen streams into workload streams. In Proactive mode
// the manually altered plan variants are used where the paper used them.
func TPCHStreams(streams []tpch.Stream, mode recycledb.Mode) [][]workload.Query {
	out := make([][]workload.Query, len(streams))
	for i, s := range streams {
		qs := make([]workload.Query, len(s.Queries))
		for j, p := range s.Queries {
			var pl = tpch.Build(p)
			if mode == recycledb.Proactive {
				pl = tpch.BuildPA(p)
			}
			qs[j] = workload.Query{Label: fmt.Sprintf("Q%d", p.Q), Plan: pl}
		}
		out[i] = qs
	}
	return out
}

// fmtDur renders a duration in ms with 2 decimals.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
}

// pct renders a/b as a percentage.
func pct(a, b time.Duration) string {
	if b == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(a)/float64(b))
}

// table renders rows with aligned columns.
func table(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s  ", width[i], c)
		}
		b.WriteString("\n")
	}
	line(header)
	for i := range header {
		header[i] = strings.Repeat("-", width[i])
	}
	line(header)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}
