package harness

import (
	"fmt"
	"sort"
	"time"

	"recycledb"
	"recycledb/internal/tpch"
	"recycledb/internal/workload"
)

// Fig. 7: "Average time per TPC-H stream" for 4/16/64/256 streams under
// OFF/HIST/SPEC/PA, and Fig. 8: the per-query-pattern breakdown (relative to
// OFF) at the largest stream count. One sweep produces both.

// ThroughputCell is one (mode, streams) measurement.
type ThroughputCell struct {
	Mode       recycledb.Mode
	Streams    int
	AvgStream  time.Duration
	PerPattern map[string]time.Duration // avg execution time per pattern
	Reuses     int64
}

// ThroughputResult is the full sweep.
type ThroughputResult struct {
	Cfg   TPCHConfig
	Cells []ThroughputCell
}

// RunThroughput executes the sweep: for each stream count and mode, a fresh
// engine over the shared catalog runs the same qgen streams.
func RunThroughput(cfg TPCHConfig) (*ThroughputResult, error) {
	cat := LoadTPCH(cfg)
	res := &ThroughputResult{Cfg: cfg}
	for _, n := range cfg.Streams {
		streams := tpch.Streams(n, cfg.Seed)
		for _, mode := range Modes {
			eng := NewEngine(cat, mode, cfg.CacheBytes)
			ws := TPCHStreams(streams, mode)
			run := workload.Run(ws, cfg.MaxConcurrent, EngineExec(eng))
			if run.Errs > 0 {
				return nil, fmt.Errorf("harness: %d queries failed (mode %v, %d streams)",
					run.Errs, mode, n)
			}
			cell := ThroughputCell{
				Mode: mode, Streams: n,
				AvgStream:  run.AvgStreamTime(),
				PerPattern: make(map[string]time.Duration),
			}
			for label := range run.PerLabel {
				cell.PerPattern[label] = run.AvgLabelTime(label)
			}
			st := eng.Recycler().Stats()
			cell.Reuses = st.Reuses + st.SubsumptionReuse
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

// Cell returns the cell for (mode, streams), or nil.
func (r *ThroughputResult) Cell(mode recycledb.Mode, streams int) *ThroughputCell {
	for i := range r.Cells {
		if r.Cells[i].Mode == mode && r.Cells[i].Streams == streams {
			return &r.Cells[i]
		}
	}
	return nil
}

// Improvement returns 1 - mode/OFF for the given stream count (the paper's
// "10/24/55/79 % improvement" numbers use the best mode).
func (r *ThroughputResult) Improvement(mode recycledb.Mode, streams int) float64 {
	off := r.Cell(recycledb.Off, streams)
	c := r.Cell(mode, streams)
	if off == nil || c == nil || off.AvgStream == 0 {
		return 0
	}
	return 1 - float64(c.AvgStream)/float64(off.AvgStream)
}

// String renders Fig. 7's series.
func (r *ThroughputResult) String() string {
	header := []string{"streams"}
	for _, m := range Modes {
		header = append(header, m.String())
	}
	header = append(header, "best improvement")
	var rows [][]string
	for _, n := range r.Cfg.Streams {
		row := []string{fmt.Sprintf("%d", n)}
		best := 0.0
		for _, m := range Modes {
			c := r.Cell(m, n)
			if c == nil {
				row = append(row, "n/a")
				continue
			}
			row = append(row, fmtDur(c.AvgStream))
			if imp := r.Improvement(m, n); imp > best {
				best = imp
			}
		}
		row = append(row, fmt.Sprintf("%.0f%%", best*100))
		rows = append(rows, row)
	}
	return "Fig. 7 - TPC-H: average evaluation time per stream\n" + table(header, rows)
}

// Fig8String renders the per-pattern breakdown (relative to OFF) at the
// largest stream count.
func (r *ThroughputResult) Fig8String() string {
	n := r.Cfg.Streams[len(r.Cfg.Streams)-1]
	off := r.Cell(recycledb.Off, n)
	if off == nil {
		return "no data"
	}
	labels := make([]string, 0, len(off.PerPattern))
	for l := range off.PerPattern {
		labels = append(labels, l)
	}
	sort.Slice(labels, func(a, b int) bool {
		return patternNum(labels[a]) < patternNum(labels[b])
	})
	header := []string{"query", "OFF"}
	for _, m := range Modes[1:] {
		header = append(header, m.String()+" (% of OFF)")
	}
	var rows [][]string
	for _, l := range labels {
		row := []string{l, fmtDur(off.PerPattern[l])}
		for _, m := range Modes[1:] {
			c := r.Cell(m, n)
			if c == nil || off.PerPattern[l] == 0 {
				row = append(row, "n/a")
				continue
			}
			row = append(row, pct(c.PerPattern[l], off.PerPattern[l]))
		}
		rows = append(rows, row)
	}
	return fmt.Sprintf("Fig. 8 - per-pattern breakdown at %d streams (execution time relative to OFF)\n", n) +
		table(header, rows)
}

func patternNum(label string) int {
	var n int
	fmt.Sscanf(label, "Q%d", &n)
	return n
}
