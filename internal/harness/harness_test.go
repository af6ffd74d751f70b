package harness

import (
	"strings"
	"testing"

	"recycledb"
)

// Small-scale smoke runs of the figure runners. They assert on counters
// (reuses, flushes, materializations), never on durations: at this scale a
// loaded or race-instrumented machine reorders any two timings. The
// laptop-scale runs that print the figures are the Benchmark*Fig* functions
// in the root bench_test.go.

func TestRunFig6Small(t *testing.T) {
	cfg := Fig6Config{Objects: 8000, Queries: 24, LimitedCacheBytes: 32 << 10, Seed: 1}
	res, err := RunFig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 12 { // 3 splits x 2 caches x 2 systems
		t.Fatalf("cells = %d, want 12", len(res.Cells))
	}
	// Both recyclers must serve cached results in every cell (the workload
	// repeats one dominant expensive pattern, within each batch too), and
	// both must have been flushed once between consecutive batches.
	flushes := map[string]int{"1x100": 0, "2x50": 1, "4x25": 3}
	for _, c := range res.Cells {
		if c.Reuses == 0 {
			t.Errorf("%s %s %s: no reuses", c.System, c.Split, c.Cache)
		}
		if c.Flushes != flushes[c.Split] {
			t.Errorf("%s %s %s: %d flushes, want %d", c.System, c.Split, c.Cache, c.Flushes, flushes[c.Split])
		}
	}
	if !strings.Contains(res.String(), "% of naive") {
		t.Fatal("rendering broken")
	}
}

func TestRunThroughputSmall(t *testing.T) {
	cfg := TPCHConfig{
		SF:            0.002,
		Streams:       []int{2, 6},
		MaxConcurrent: 4,
		CacheBytes:    64 << 20,
		Seed:          1,
	}
	res, err := RunThroughput(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 8 { // 2 stream counts x 4 modes
		t.Fatalf("cells = %d, want 8", len(res.Cells))
	}
	// Every recycling mode must produce reuses at the higher stream count,
	// and Off none at all.
	for _, m := range Modes {
		c := res.Cell(m, 6)
		if (c.Reuses > 0) != (m != recycledb.Off) {
			t.Errorf("mode %v at 6 streams: %d reuses", m, c.Reuses)
		}
		if len(c.PerPattern) != 22 {
			t.Errorf("mode %v at 6 streams: %d patterns timed, want 22", m, len(c.PerPattern))
		}
	}
	out := res.String()
	if !strings.Contains(out, "streams") {
		t.Fatal("Fig7 rendering broken")
	}
	out8 := res.Fig8String()
	if !strings.Contains(out8, "Q1") || !strings.Contains(out8, "Q22") {
		t.Fatalf("Fig8 rendering broken:\n%s", out8)
	}
}

func TestRunFig9Small(t *testing.T) {
	cfg := Fig9Config{SF: 0.002, Streams: 4, MaxConcurrent: 4, Seed: 1}
	res, err := RunFig9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) != 4*6 {
		t.Fatalf("events = %d, want 24", len(res.Events))
	}
	// Speculation is on and the cache is far larger than the data: every
	// query materializes something, reuses something, or stalls on another
	// stream's in-flight materialization of what it needs (final results
	// are always candidates). Which of the three depends on the
	// interleaving; that it is one of them does not.
	for _, e := range res.Events {
		if !e.Outcome.Reused && !e.Outcome.Materialized && !e.Outcome.Stalled {
			t.Errorf("stream %d %s neither materialized, reused nor stalled", e.Stream, e.Label)
		}
	}
	out := res.String()
	if !strings.Contains(out, "legend") || !strings.Contains(out, "summary") {
		t.Fatal("Fig9 rendering broken")
	}
}
