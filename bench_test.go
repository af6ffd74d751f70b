package recycledb_test

// Benchmarks regenerating Figs. 6-9 of the paper's evaluation (§V), plus
// component micro-benchmarks and ablations of the recycler's design choices
// (subsumption, aging). One benchmark iteration runs one full experiment at
// laptop scale; paper-relevant quantities are attached via b.ReportMetric
// (custom units), so `go test -bench=. -benchmem` regenerates them all.
// Absolute times differ from the paper's testbed (a generated database of
// a few MB instead of 30 GB on 8 cores); the shapes — who wins, by roughly
// what factor, where crossovers fall — are the reproduction target. Fig. 10
// is not here: its series is core.match_us_q1..q4 against core.graph_nodes
// in `bash benchmark/run.sh --workload streams_spec --trace 1`.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"recycledb"

	"recycledb/internal/catalog"
	"recycledb/internal/core"
	"recycledb/internal/harness"
	"recycledb/internal/monet"
	"recycledb/internal/skyserver"
	"recycledb/internal/tpch"
	"recycledb/internal/workload"
)

// BenchmarkFig6SkyServer regenerates Fig. 6: SkyServer workload runtime as a
// percentage of naive, for the pipelined recycler and the operator-at-a-time
// (MonetDB-style) recycler, under batch splits and cache limits.
func BenchmarkFig6SkyServer(b *testing.B) {
	cfg := harness.Fig6Config{
		Objects:           60000,
		Queries:           60,
		LimitedCacheBytes: 64 << 10,
		Seed:              1,
	}
	for i := 0; i < b.N; i++ {
		res, err := harness.RunFig6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range res.Cells {
			if c.Split == "1x100" {
				b.ReportMetric(c.PctOfNaive(),
					fmt.Sprintf("%%naive_%s_%s", c.System, c.Cache))
			}
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// fig7cfg is the shared throughput configuration for Figs. 7 and 8.
func fig7cfg() harness.TPCHConfig {
	return harness.TPCHConfig{
		SF:            0.005,
		Streams:       []int{4, 16, 64},
		MaxConcurrent: 12,
		CacheBytes:    256 << 20,
		Seed:          1,
	}
}

// BenchmarkFig7Throughput regenerates Fig. 7: average evaluation time per
// TPC-H stream under OFF/HIST/SPEC/PA across stream counts.
func BenchmarkFig7Throughput(b *testing.B) {
	cfg := fig7cfg()
	for i := 0; i < b.N; i++ {
		res, err := harness.RunThroughput(cfg)
		if err != nil {
			b.Fatal(err)
		}
		maxStreams := cfg.Streams[len(cfg.Streams)-1]
		for _, m := range harness.Modes[1:] {
			b.ReportMetric(100*res.Improvement(m, maxStreams),
				fmt.Sprintf("%%improve_%s_%dstreams", m, maxStreams))
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkFig8Breakdown regenerates Fig. 8: the per-query-pattern breakdown
// relative to OFF at the largest stream count.
func BenchmarkFig8Breakdown(b *testing.B) {
	cfg := fig7cfg()
	for i := 0; i < b.N; i++ {
		res, err := harness.RunThroughput(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Fig8String())
		}
		n := cfg.Streams[len(cfg.Streams)-1]
		off := res.Cell(recycledb.Off, n)
		spec := res.Cell(recycledb.Speculative, n)
		if off != nil && spec != nil && off.PerPattern["Q1"] > 0 {
			b.ReportMetric(100*float64(spec.PerPattern["Q1"])/float64(off.PerPattern["Q1"]),
				"%ofOFF_Q1_SPEC")
		}
	}
}

// BenchmarkFig9Trace regenerates Fig. 9: the 8-stream concurrent trace with
// materialize/reuse/stall events.
func BenchmarkFig9Trace(b *testing.B) {
	cfg := harness.Fig9Config{SF: 0.005, Streams: 8, MaxConcurrent: 8, Seed: 1}
	for i := 0; i < b.N; i++ {
		res, err := harness.RunFig9(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var reused, mat int
		for _, e := range res.Events {
			if e.Outcome.Reused {
				reused++
			}
			if e.Outcome.Materialized {
				mat++
			}
		}
		b.ReportMetric(float64(reused), "reused_queries")
		b.ReportMetric(float64(mat), "materializing_queries")
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// --- Component micro-benchmarks -----------------------------------------

// benchCatalog loads a small TPC-H database once.
var benchCatalog = func() *catalog.Catalog {
	cat := catalog.New()
	tpch.Generate(cat, 0.005, 1)
	return cat
}()

// BenchmarkMatchInsert measures recycler-graph matching+insertion of a fresh
// 22-pattern workload (the per-query cost the paper bounds at ~2 ms).
func BenchmarkMatchInsert(b *testing.B) {
	streams := tpch.Streams(1, 1)
	plans := make([]*recycledb.Plan, 0, 22)
	for _, p := range streams[0].Queries {
		q := tpch.Build(p)
		if err := q.Resolve(benchCatalog); err != nil {
			b.Fatal(err)
		}
		plans = append(plans, q)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := core.New(core.DefaultConfig())
		for _, q := range plans {
			rec.MatchInsert(q)
		}
	}
}

// BenchmarkMatchAgainstLargeGraph measures exact matching against a graph
// already holding many distinct queries (Fig. 10's growth axis).
func BenchmarkMatchAgainstLargeGraph(b *testing.B) {
	rec := core.New(core.DefaultConfig())
	for _, s := range tpch.Streams(32, 1) {
		for _, p := range s.Queries {
			q := tpch.Build(p)
			if err := q.Resolve(benchCatalog); err != nil {
				b.Fatal(err)
			}
			rec.MatchInsert(q)
		}
	}
	probe := tpch.Build(tpch.NewStream(0, 1).Queries[0])
	if err := probe.Resolve(benchCatalog); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.MatchInsert(probe)
	}
}

// BenchmarkQueryOff measures a representative query (Q6) without recycling.
func BenchmarkQueryOff(b *testing.B) {
	eng := recycledb.NewWithCatalog(recycledb.Config{Mode: recycledb.Off}, benchCatalog)
	q := tpch.Build(tpch.Params{Q: 6, Date: mustDate("1994-01-01"), Float1: 0.06, Int1: 24})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.ExecuteContext(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryRecycled measures the same query with a warm cache: the
// paper's headline effect at micro scale.
func BenchmarkQueryRecycled(b *testing.B) {
	eng := recycledb.NewWithCatalog(recycledb.Config{Mode: recycledb.Speculative}, benchCatalog)
	q := tpch.Build(tpch.Params{Q: 6, Date: mustDate("1994-01-01"), Float1: 0.06, Int1: 24})
	if _, err := eng.ExecuteContext(context.Background(), q); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.ExecuteContext(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreOverhead measures the pipelined engine's materialization
// tax: the same query with and without a committing store operator.
func BenchmarkStoreOverhead(b *testing.B) {
	q := tpch.Build(tpch.Params{Q: 1, Date: mustDate("1998-09-02")})
	b.Run("passthrough", func(b *testing.B) {
		eng := recycledb.NewWithCatalog(recycledb.Config{Mode: recycledb.Off}, benchCatalog)
		for i := 0; i < b.N; i++ {
			if _, err := eng.ExecuteContext(context.Background(), q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("materializing", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			// A fresh engine each round so the store always commits
			// rather than reusing.
			eng := recycledb.NewWithCatalog(recycledb.Config{Mode: recycledb.Speculative}, benchCatalog)
			b.StartTimer()
			if _, err := eng.ExecuteContext(context.Background(), q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablations ------------------------------------------------------------

// ablationWorkload runs a small shared-parameter workload and reports the
// total execution time plus reuse counts.
func ablationWorkload(b *testing.B, eng *recycledb.Engine) {
	streams := harness.TPCHStreams(tpch.Streams(8, 1), eng.Mode())
	run := workload.Run(streams, 8, harness.EngineExec(eng))
	if run.Errs > 0 {
		b.Fatalf("%d queries failed", run.Errs)
	}
	st := eng.Recycler().Stats()
	b.ReportMetric(float64(st.Reuses+st.SubsumptionReuse), "reuses")
	b.ReportMetric(float64(st.Materializations), "materializations")
}

// BenchmarkAblationCacheBudget sweeps the recycler cache size (the paper's
// limited-vs-unlimited axis of Fig. 6, on TPC-H).
func BenchmarkAblationCacheBudget(b *testing.B) {
	for _, kb := range []int64{64, 1024, -1} {
		name := fmt.Sprintf("%dKB", kb)
		if kb < 0 {
			name = "unlimited"
		}
		bytes := kb << 10
		if kb < 0 {
			bytes = -1
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng := recycledb.NewWithCatalog(recycledb.Config{Mode: recycledb.Speculative, CacheBytes: bytes}, benchCatalog)
				ablationWorkload(b, eng)
			}
		})
	}
}

// BenchmarkAblationAging compares workload-adaptive aging (alpha < 1)
// against no aging under a shifting workload: the first half references one
// parameter set, the second half another; aging lets the cache turn over.
func BenchmarkAblationAging(b *testing.B) {
	for _, alpha := range []float64{0.995, 1.0} {
		b.Run(fmt.Sprintf("alpha=%.3f", alpha), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tun := recycledb.DefaultTuning()
				tun.Core.Alpha = alpha
				eng := recycledb.NewTuned(recycledb.Config{
					Mode:       recycledb.Speculative,
					CacheBytes: 128 << 10, // tight: eviction pressure matters
				}, tun, benchCatalog)
				phase1 := harness.TPCHStreams(tpch.Streams(4, 1), recycledb.Speculative)
				phase2 := harness.TPCHStreams(tpch.Streams(4, 99), recycledb.Speculative)
				workload.Run(phase1, 8, harness.EngineExec(eng))
				run := workload.Run(phase2, 8, harness.EngineExec(eng))
				if run.Errs > 0 {
					b.Fatal("phase 2 failed")
				}
				st := eng.Recycler().Stats()
				b.ReportMetric(float64(st.Reuses), "reuses")
			}
		})
	}
}

// BenchmarkAblationAdmitAll contrasts the paper's selective benefit-driven
// admission with the operator-at-a-time admit-all recycler under the same
// limited cache (the crux of Fig. 6's limited-cache columns).
func BenchmarkAblationAdmitAll(b *testing.B) {
	cat := catalog.New()
	skyserver.Load(cat, 40000, 1)
	queries := skyserver.Workload(40, 1)
	b.Run("selective-pipelined", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := recycledb.NewWithCatalog(recycledb.Config{Mode: recycledb.Speculative, CacheBytes: 64 << 10}, cat)
			for _, q := range queries {
				if _, err := eng.ExecuteContext(context.Background(), q.Plan); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("admitall-materializing", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := monet.New(cat, monet.NewRecycler(64<<10))
			for _, q := range queries {
				if _, err := eng.Execute(q.Plan); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

func mustDate(s string) int64 {
	q := tpch.Params{}
	_ = q
	d := recycledb.DateDatum(s)
	return d.I64
}

// streamBenchQuery is a wide pipelined selection: enough rows that full
// materialization dominates, so the streaming first-batch win is visible.
const streamBenchQuery = `SELECT l_orderkey, l_extendedprice, l_quantity
                          FROM lineitem WHERE l_quantity > 2.0`

// BenchmarkQueryStreaming measures the streaming API: latency to the first
// batch (what an interactive consumer feels) is reported alongside the
// full-drain time. Recycling is off so every iteration pays the pipeline.
func BenchmarkQueryStreaming(b *testing.B) {
	eng := recycledb.New(recycledb.Config{Mode: recycledb.Off})
	tpch.Generate(eng.Catalog(), 0.05, 1)
	ctx := context.Background()
	var firstBatch time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		rows, err := eng.Query(ctx, streamBenchQuery)
		if err != nil {
			b.Fatal(err)
		}
		bt, err := rows.Next(ctx)
		if err != nil || bt == nil {
			b.Fatalf("first batch: %v %v", bt, err)
		}
		firstBatch += time.Since(start)
		for bt != nil {
			if bt, err = rows.Next(ctx); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(firstBatch.Nanoseconds())/float64(b.N), "ns/first-batch")
}

// BenchmarkQueryCollect is the same query fully materialized: the first row
// is only available after the entire result is collected.
func BenchmarkQueryCollect(b *testing.B) {
	eng := recycledb.New(recycledb.Config{Mode: recycledb.Off})
	tpch.Generate(eng.Catalog(), 0.05, 1)
	ctx := context.Background()
	var firstRow time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		res, err := eng.QueryCollect(ctx, streamBenchQuery)
		if err != nil {
			b.Fatal(err)
		}
		firstRow += time.Since(start) // rows usable only now
		if res.Rows() == 0 {
			b.Fatal("empty result")
		}
	}
	b.ReportMetric(float64(firstRow.Nanoseconds())/float64(b.N), "ns/first-batch")
}
