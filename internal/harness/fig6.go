package harness

import (
	"context"
	"fmt"
	"time"

	"recycledb"
	"recycledb/internal/catalog"
	"recycledb/internal/monet"
	"recycledb/internal/skyserver"
)

// Fig. 6: "Impact of recycling on SkyServer queries". The 100-query
// workload runs under four systems — the operator-at-a-time engine with and
// without its admit-all recycler (the MonetDB comparison), and the pipelined
// engine with and without the paper's recycler — split into batches of
// 100/50/25 with a cache flush between batches (simulating update
// invalidation), each with a limited and an unlimited recycler cache.
// Reported: recycler runtime as % of the matching naive runtime.

// Fig6Config sizes the experiment.
type Fig6Config struct {
	// Objects is the PhotoPrimary cardinality (scales the 100 GB subset).
	Objects int
	// Queries is the workload length (paper: 100).
	Queries int
	// LimitedCacheBytes models the paper's 1 GB budget, scaled to data.
	LimitedCacheBytes int64
	Seed              int64
}

// Fig6Cell is one bar of the figure.
type Fig6Cell struct {
	System  string // "MonetDB" or "Recycler"
	Split   string // "1x100", "2x50", "4x25"
	Cache   string // "limited" or "unlimited"
	Naive   time.Duration
	Recycle time.Duration
	// Reuses and Flushes count what the recycling run did: cached results
	// served, and cache flushes between batches.
	Reuses  int64
	Flushes int
}

// PctOfNaive is the figure's y-axis.
func (c Fig6Cell) PctOfNaive() float64 {
	if c.Naive == 0 {
		return 0
	}
	return 100 * float64(c.Recycle) / float64(c.Naive)
}

// Fig6Result is the full grid.
type Fig6Result struct {
	Cells []Fig6Cell
}

// RunFig6 executes the experiment.
func RunFig6(cfg Fig6Config) (*Fig6Result, error) {
	cat := catalog.New()
	skyserver.Load(cat, cfg.Objects, cfg.Seed)
	queries := skyserver.Workload(cfg.Queries, cfg.Seed)

	splits := []struct {
		name    string
		batches int
	}{{"1x100", 1}, {"2x50", 2}, {"4x25", 4}}
	caches := []struct {
		name  string
		bytes int64
	}{{"limited", cfg.LimitedCacheBytes}, {"unlimited", -1}}

	res := &Fig6Result{}
	// The naive baselines are split- and cache-independent; measure once.
	naiveP, err := runPipelined(cat, queries, recycledb.Off, -1, 1)
	if err != nil {
		return nil, err
	}
	naiveM, err := runMonet(cat, queries, nil, 1)
	if err != nil {
		return nil, err
	}
	cell := func(system, split, cache string, naive, rec fig6Run) Fig6Cell {
		return Fig6Cell{
			System: system, Split: split, Cache: cache,
			Naive: naive.elapsed, Recycle: rec.elapsed,
			Reuses: rec.reuses, Flushes: rec.flushes,
		}
	}
	for _, split := range splits {
		for _, cache := range caches {
			recP, err := runPipelined(cat, queries, recycledb.Speculative, cache.bytes, split.batches)
			if err != nil {
				return nil, err
			}
			res.Cells = append(res.Cells, cell("Recycler", split.name, cache.name, naiveP, recP))
			var mrec *monet.Recycler
			if cache.bytes < 0 {
				mrec = monet.NewRecycler(0)
			} else {
				mrec = monet.NewRecycler(cache.bytes)
			}
			recM, err := runMonet(cat, queries, mrec, split.batches)
			if err != nil {
				return nil, err
			}
			res.Cells = append(res.Cells, cell("MonetDB", split.name, cache.name, naiveM, recM))
		}
	}
	return res, nil
}

// fig6Run is one pass over the workload under one system.
type fig6Run struct {
	elapsed time.Duration
	reuses  int64
	flushes int
}

func runPipelined(cat *catalog.Catalog, queries []skyserver.Query, mode recycledb.Mode, cacheBytes int64, batches int) (fig6Run, error) {
	eng := NewEngine(cat, mode, cacheBytes)
	var run fig6Run
	start := time.Now()
	per := (len(queries) + batches - 1) / batches
	for i, q := range queries {
		if i > 0 && i%per == 0 {
			eng.FlushCache()
			run.flushes++
		}
		if _, err := eng.ExecuteContext(context.Background(), q.Plan); err != nil {
			return run, fmt.Errorf("query %d (%s): %w", i, q.Pattern, err)
		}
	}
	run.elapsed = time.Since(start)
	st := eng.Recycler().Stats()
	run.reuses = st.Reuses + st.SubsumptionReuse
	return run, nil
}

func runMonet(cat *catalog.Catalog, queries []skyserver.Query, rec *monet.Recycler, batches int) (fig6Run, error) {
	eng := monet.New(cat, rec)
	var run fig6Run
	start := time.Now()
	per := (len(queries) + batches - 1) / batches
	for i, q := range queries {
		if i > 0 && i%per == 0 && rec != nil {
			rec.Flush()
			run.flushes++
		}
		if _, err := eng.Execute(q.Plan); err != nil {
			return run, fmt.Errorf("query %d (%s): %w", i, q.Pattern, err)
		}
	}
	run.elapsed = time.Since(start)
	if rec != nil {
		run.reuses = rec.Stats().Hits
	}
	return run, nil
}

// String renders the figure as a table of %-of-naive values.
func (r *Fig6Result) String() string {
	header := []string{"split", "cache", "system", "naive", "recycler", "% of naive", "reuses", "flushes"}
	var rows [][]string
	for _, c := range r.Cells {
		rows = append(rows, []string{
			c.Split, c.Cache, c.System,
			fmtDur(c.Naive), fmtDur(c.Recycle),
			fmt.Sprintf("%.1f%%", c.PctOfNaive()),
			fmt.Sprintf("%d", c.Reuses), fmt.Sprintf("%d", c.Flushes),
		})
	}
	return "Fig. 6 - SkyServer: recycling runtime as % of naive\n" + table(header, rows)
}
