// Command recycledb-bench runs the paper's experiments (Figs. 6-10 of
// "Recycling in Pipelined Query Evaluation", ICDE 2013) and prints the
// corresponding tables/series.
//
// Usage:
//
//	recycledb-bench -fig 6 [-objects 120000 -queries 100]
//	recycledb-bench -fig 7 [-sf 0.01 -streams 4,16,64,256]
//	recycledb-bench -fig 8 [-sf 0.01 -streams 4,16,64,256]
//	recycledb-bench -fig 9 [-sf 0.01]
//	recycledb-bench -fig 10 [-sf 0.01 -streams256 256]
//	recycledb-bench -fig all
//
// The -json mode instead records the serving-tier perf trajectory: it drives
// the multi-client TPC-H mix against one engine per recycling mode and
// writes a machine-readable BENCH_<date>.json with queries/sec, latency
// percentiles, and allocations per query:
//
//	recycledb-bench -json [-out bench/BENCH_2026-07-30.json] \
//	        [-clients 8 -bqueries 2000 -sf 0.01 -seed 1]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"recycledb"

	"recycledb/internal/catalog"
	"recycledb/internal/harness"
	"recycledb/internal/monet"
	"recycledb/internal/server"
	"recycledb/internal/workload"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "figure to reproduce: 6, 7, 8, 9, 10 or all")
		sf       = flag.Float64("sf", 0.01, "TPC-H scale factor")
		streams  = flag.String("streams", "4,16,64,256", "stream counts for figs 7/8")
		nstreams = flag.Int("streams256", 256, "stream count for fig 10")
		objects  = flag.Int("objects", 120000, "SkyServer PhotoPrimary size for fig 6")
		queries  = flag.Int("queries", 100, "SkyServer workload length for fig 6")
		maxConc  = flag.Int("concurrent", 12, "query admission limit")
		seed     = flag.Int64("seed", 1, "generator seed")

		serverMode = flag.Bool("server", false, "benchmark the pgwire serving stack over TCP and write BENCH_<date>_server.json")
		serverAddr = flag.String("addr", "", "with -server: benchmark an already-running server at this address instead of in-process engines")
		skyObjects = flag.Int("sky-objects", 10000, "SkyServer PhotoPrimary size for -server")

		jsonMode  = flag.Bool("json", false, "run the multi-client benchmark and write BENCH_<date>.json")
		jsonOut   = flag.String("out", "", "output path for -json (default BENCH_<date>.json)")
		clients   = flag.Int("clients", 8, "client goroutines for -json")
		bqueries  = flag.Int64("bqueries", 2000, "query budget per mode for -json")
		writeFrac = flag.Float64("write-frac", 0.1, "write fraction of the -json churn section (0 disables it)")
		par       = flag.Int("parallelism", 0, "intra-query worker budget for -json (0 = GOMAXPROCS)")
		scaleOff  = flag.Bool("no-scaling", false, "skip the intra-query scaling sweep in -json")
	)
	flag.Parse()

	if *serverMode {
		if err := runServerBench(*jsonOut, *serverAddr, *clients, *bqueries, *sf, *skyObjects, *seed, *par); err != nil {
			fatal(err)
		}
		return
	}
	if *jsonMode {
		if err := runJSON(*jsonOut, *clients, *bqueries, *sf, *seed, *writeFrac, *par, !*scaleOff); err != nil {
			fatal(err)
		}
		return
	}

	counts, err := parseStreams(*streams)
	if err != nil {
		fatal(err)
	}
	run := func(name string, f func() error) {
		fmt.Printf("=== %s ===\n", name)
		if err := f(); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
	want := func(n string) bool { return *fig == "all" || *fig == n }

	if want("6") {
		run("Fig. 6 (SkyServer)", func() error {
			cfg := harness.DefaultFig6()
			cfg.Objects = *objects
			cfg.Queries = *queries
			cfg.Seed = *seed
			res, err := harness.RunFig6(cfg)
			if err != nil {
				return err
			}
			fmt.Print(res.String())
			return nil
		})
	}
	if want("7") || want("8") {
		run("Figs. 7+8 (TPC-H throughput)", func() error {
			cfg := harness.DefaultTPCH()
			cfg.SF = *sf
			cfg.Streams = counts
			cfg.MaxConcurrent = *maxConc
			cfg.Seed = *seed
			res, err := harness.RunThroughput(cfg)
			if err != nil {
				return err
			}
			if want("7") {
				fmt.Print(res.String())
			}
			if want("8") {
				fmt.Print(res.Fig8String())
			}
			return nil
		})
	}
	if want("9") {
		run("Fig. 9 (concurrent trace)", func() error {
			cfg := harness.DefaultFig9()
			cfg.SF = *sf
			cfg.Seed = *seed
			res, err := harness.RunFig9(cfg)
			if err != nil {
				return err
			}
			fmt.Print(res.String())
			return nil
		})
	}
	if want("10") {
		run("Fig. 10 (matching cost)", func() error {
			cfg := harness.DefaultFig10()
			cfg.SF = *sf
			cfg.Streams = *nstreams
			cfg.MaxConcurrent = *maxConc
			cfg.Seed = *seed
			res, err := harness.RunFig10(cfg)
			if err != nil {
				return err
			}
			fmt.Print(res.String())
			return nil
		})
	}
}

// benchMode is one mode's row in the JSON benchmark report.
type benchMode struct {
	Mode           string  `json:"mode"`
	Queries        int64   `json:"queries"`
	Errors         int64   `json:"errors"`
	QueriesPerSec  float64 `json:"queries_per_sec"`
	P50Micros      int64   `json:"p50_us"`
	P95Micros      int64   `json:"p95_us"`
	P99Micros      int64   `json:"p99_us"`
	AllocsPerQuery float64 `json:"allocs_per_query"`
	BytesPerQuery  float64 `json:"bytes_per_query"`
}

// churnMode is one engine's row in the churn section: a mixed read/write
// run at the configured write fraction, with the recycler's hit rate and
// how the cache coped with the write epochs.
type churnMode struct {
	Mode    string `json:"mode"`
	Queries int64  `json:"queries"`
	Writes  int64  `json:"writes"`
	// HitRate is cache reuses (exact + subsumption + in-flight shared)
	// per query; for the monet baseline, hits/(hits+misses).
	HitRate       float64 `json:"hit_rate"`
	QueriesPerSec float64 `json:"queries_per_sec"`
	Invalidated   int64   `json:"invalidated"`
	DeltaExtended int64   `json:"delta_extended"`
	DeltaRows     int64   `json:"delta_extended_rows"`
}

// benchReport is the top-level BENCH_<date>.json document.
type benchReport struct {
	Date       string      `json:"date"`
	GoVersion  string      `json:"go"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	NumCPU     int         `json:"num_cpu"`
	Clients    int         `json:"clients"`
	Queries    int64       `json:"queries_per_mode"`
	SF         float64     `json:"sf"`
	Seed       int64       `json:"seed"`
	Modes      []benchMode `json:"modes"`
	// Parallelism is the intra-query worker budget of the modes runs
	// (0 = GOMAXPROCS).
	Parallelism int `json:"parallelism"`
	// Churn measures recycling under append-only updates: the pipelined
	// recycler's lineage-based invalidation with delta extension keeps a
	// nonzero hit rate, while the monet-style invalidate-all baseline
	// collapses. WriteFrac 0 omits the section.
	WriteFrac float64      `json:"write_frac,omitempty"`
	Churn     []*churnMode `json:"churn,omitempty"`
	// Scaling sweeps the intra-query worker budget for one client: the
	// morsel-parallel speedup of a single statement per recycling mode.
	Scaling []*scaleRow `json:"scaling,omitempty"`
}

// scaleRow is one (mode, workers) cell of the intra-query scaling sweep.
type scaleRow struct {
	Mode          string  `json:"mode"`
	Workers       int     `json:"workers"`
	QueriesPerSec float64 `json:"queries_per_sec"`
	P95Micros     int64   `json:"p95_us"`
	// SpeedupVs1 is q/s relative to the same mode at Workers=1.
	SpeedupVs1 float64 `json:"speedup_vs_1"`
}

// runJSON drives the TPC-H client mix against one engine per recycling mode
// and writes the machine-readable report. Allocations are measured as the
// runtime.MemStats delta across the timed run divided by completed queries,
// so the number covers the whole serving path (parse-free: plans come from
// the mix, so this isolates rewrite+execute).
func runJSON(out string, clients int, queries int64, sf float64, seed int64, writeFrac float64, parallelism int, scaling bool) error {
	if out == "" {
		out = fmt.Sprintf("BENCH_%s.json", time.Now().Format("2006-01-02"))
	}
	cfg := harness.DefaultTPCH()
	cfg.SF = sf
	cfg.Seed = seed
	cat := harness.LoadTPCH(cfg)
	rep := benchReport{
		Date:        time.Now().Format("2006-01-02"),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Clients:     clients,
		Queries:     queries,
		SF:          sf,
		Seed:        seed,
		Parallelism: parallelism,
	}
	for _, mode := range harness.Modes {
		eng := recycledb.NewWithCatalog(recycledb.Config{
			Mode: mode, CacheBytes: cfg.CacheBytes, Parallelism: parallelism}, cat)
		mix := harness.TPCHMix(4, 1)
		exec := harness.EngineExec(eng)
		// Warm plan pools and (in recycling modes) the cache so the timed
		// run measures the steady serving state.
		workload.RunClients(workload.ClientsConfig{
			Clients: clients, MaxQueries: int64(clients) * 16, Seed: seed + 7,
		}, mix, exec)
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := workload.RunClients(workload.ClientsConfig{
			Clients: clients, MaxQueries: queries, Seed: seed,
		}, mix, exec)
		runtime.ReadMemStats(&after)
		row := benchMode{
			Mode:          fmt.Sprintf("%v", mode),
			Queries:       res.Queries,
			Errors:        res.Errs,
			QueriesPerSec: res.QPS(),
			P50Micros:     res.Percentile(50).Microseconds(),
			P95Micros:     res.Percentile(95).Microseconds(),
			P99Micros:     res.Percentile(99).Microseconds(),
		}
		if res.Queries > 0 {
			row.AllocsPerQuery = float64(after.Mallocs-before.Mallocs) / float64(res.Queries)
			row.BytesPerQuery = float64(after.TotalAlloc-before.TotalAlloc) / float64(res.Queries)
		}
		rep.Modes = append(rep.Modes, row)
		fmt.Printf("%-12s %8.0f q/s  p95 %6dus  %8.0f allocs/q\n",
			row.Mode, row.QueriesPerSec, row.P95Micros, row.AllocsPerQuery)
	}
	if writeFrac > 0 {
		rep.WriteFrac = writeFrac
		if err := runChurn(&rep, clients, queries, cfg, writeFrac); err != nil {
			return err
		}
	}
	if scaling {
		runScaling(&rep, queries, cat, cfg.CacheBytes)
	}
	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}

// runChurn drives the mixed read/write mix: each recycling mode gets a
// fresh catalog (writes mutate it), as does the monet baseline, so the
// hit-rate comparison is apples to apples. Writes are append-only — the
// delta-extension showcase; the pipelined recycler keeps reusing extended
// entries while the monet recycler flushes everything on every commit.
func runChurn(rep *benchReport, clients int, queries int64, cfg harness.TPCHConfig, writeFrac float64) error {
	fmt.Printf("--- churn (write-frac %.2f, append-only) ---\n", writeFrac)
	for _, mode := range harness.Modes {
		cat := harness.LoadTPCH(cfg)
		eng := harness.NewEngine(cat, mode, cfg.CacheBytes)
		res := workload.RunClients(workload.ClientsConfig{
			Clients: clients, MaxQueries: queries, Seed: cfg.Seed,
			WriteFrac: writeFrac,
			Write:     harness.SyntheticAppender(cat, "lineitem", 8),
		}, harness.TPCHMix(4, 1), harness.EngineExec(eng))
		st := eng.Recycler().Stats()
		row := &churnMode{
			Mode:          fmt.Sprintf("%v", mode),
			Queries:       res.Queries,
			Writes:        res.Writes,
			QueriesPerSec: res.QPS(),
			Invalidated:   st.Invalidated,
			DeltaExtended: st.DeltaExtended,
			DeltaRows:     st.DeltaExtendRows,
		}
		if res.Queries > 0 {
			row.HitRate = float64(st.Reuses+st.SubsumptionReuse+st.InflightShared) / float64(res.Queries)
		}
		rep.Churn = append(rep.Churn, row)
		fmt.Printf("%-12s %8.0f q/s  hit-rate %.3f  invalidated %d  delta-extended %d\n",
			row.Mode, row.QueriesPerSec, row.HitRate, row.Invalidated, row.DeltaExtended)
	}
	// Monet-style baseline: admit-all recycler, invalidate-all on write.
	// The read-only row anchors the comparison — it shows how much hit
	// rate the flush-on-write protocol costs the baseline, next to the
	// lineage walk that keeps the pipelined recycler's rate intact.
	for _, frac := range []float64{0, writeFrac} {
		cat := harness.LoadTPCH(cfg)
		mrec := monet.NewRecycler(cfg.CacheBytes)
		meng := monet.New(cat, mrec)
		res := workload.RunClients(workload.ClientsConfig{
			Clients: 1, MaxQueries: queries / 4, Seed: cfg.Seed,
			WriteFrac: frac,
			Write:     harness.SyntheticAppender(cat, "lineitem", 8),
		}, harness.TPCHMix(4, 1), harness.MonetExec(meng))
		st := mrec.Stats()
		name := "monet"
		if frac == 0 {
			name = "monet-read-only"
		}
		row := &churnMode{
			Mode:          name,
			Queries:       res.Queries,
			Writes:        res.Writes,
			QueriesPerSec: res.QPS(),
			Invalidated:   st.Evicted,
		}
		if st.Hits+st.Misses > 0 {
			row.HitRate = float64(st.Hits) / float64(st.Hits+st.Misses)
		}
		rep.Churn = append(rep.Churn, row)
		fmt.Printf("%-16s %8.0f q/s  hit-rate %.3f (flush-on-write)\n",
			row.Mode, row.QueriesPerSec, row.HitRate)
	}
	return nil
}

// serverBenchMode is one recycling mode's row of the serving-stack report:
// the same q/s + percentile shape as benchMode, measured through the whole
// pgwire path (translate, prepare, bind, admission, execute, encode, TCP),
// plus the server counters that describe how the load was absorbed.
type serverBenchMode struct {
	Mode           string  `json:"mode"`
	Queries        int64   `json:"queries"`
	Errors         int64   `json:"errors"`
	QueriesPerSec  float64 `json:"queries_per_sec"`
	P50Micros      int64   `json:"p50_us"`
	P95Micros      int64   `json:"p95_us"`
	P99Micros      int64   `json:"p99_us"`
	AdmissionWaits int64   `json:"admission_waits"`
	ErrorsSent     int64   `json:"errors_sent"`
}

// serverBenchReport is the BENCH_<date>_server.json document.
type serverBenchReport struct {
	Date       string            `json:"date"`
	GoVersion  string            `json:"go"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	NumCPU     int               `json:"num_cpu"`
	Clients    int               `json:"clients"`
	Queries    int64             `json:"queries_per_mode"`
	SF         float64           `json:"sf"`
	SkyObjects int               `json:"sky_objects"`
	Seed       int64             `json:"seed"`
	Transport  string            `json:"transport"`
	Modes      []serverBenchMode `json:"modes"`
}

// runServerBench measures the serving tier end to end: per recycling mode it
// starts an in-process pgwire server on a loopback port, drives the mixed
// TPC-H + SkyServer SQL mix through real TCP connections (one per client,
// prepared statements reused per connection), and records throughput and
// latency percentiles. With addr set it instead benchmarks an external
// server once — whatever mode that server is running.
func runServerBench(out, addr string, clients int, queries int64, sf float64, skyObjects int, seed int64, parallelism int) error {
	if out == "" {
		out = fmt.Sprintf("BENCH_%s_server.json", time.Now().Format("2006-01-02"))
	}
	rep := serverBenchReport{
		Date:       time.Now().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Clients:    clients,
		Queries:    queries,
		SF:         sf,
		SkyObjects: skyObjects,
		Seed:       seed,
		Transport:  "pgwire/tcp",
	}
	mix := harness.MixedSQLMix(4, seed)
	measure := func(label, target string, stats func() server.Stats) error {
		dial := func(client int) (workload.SQLConn, error) {
			return harness.DialWire(context.Background(), target, "bench")
		}
		// Warm: prepared statements, plan cache, and (in recycling modes)
		// the result cache, so the timed run sees the steady state.
		if _, err := workload.RunSQLClients(workload.SQLClientsConfig{
			Clients: clients, MaxQueries: int64(clients) * 16, Seed: seed + 7,
		}, mix, dial); err != nil {
			return err
		}
		before := stats()
		res, err := workload.RunSQLClients(workload.SQLClientsConfig{
			Clients: clients, MaxQueries: queries, Seed: seed,
		}, mix, dial)
		if err != nil {
			return err
		}
		after := stats()
		row := serverBenchMode{
			Mode:           label,
			Queries:        res.Queries,
			Errors:         res.Errs,
			QueriesPerSec:  res.QPS(),
			P50Micros:      res.Percentile(50).Microseconds(),
			P95Micros:      res.Percentile(95).Microseconds(),
			P99Micros:      res.Percentile(99).Microseconds(),
			AdmissionWaits: after.AdmissionWaits - before.AdmissionWaits,
			ErrorsSent:     after.ErrorsSent - before.ErrorsSent,
		}
		rep.Modes = append(rep.Modes, row)
		fmt.Printf("%-12s %8.0f q/s  p50 %6dus  p95 %6dus  p99 %6dus  (%d admission waits)\n",
			row.Mode, row.QueriesPerSec, row.P50Micros, row.P95Micros, row.P99Micros, row.AdmissionWaits)
		return nil
	}

	if addr != "" {
		if err := measure("external", addr, func() server.Stats { return server.Stats{} }); err != nil {
			return err
		}
	} else {
		cat := harness.MixedCatalog(sf, skyObjects, seed)
		for _, mode := range harness.Modes {
			eng := recycledb.NewWithCatalog(recycledb.Config{Mode: mode, Parallelism: parallelism}, cat)
			srv := server.New(eng, server.Config{})
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return err
			}
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func() { defer close(done); _ = srv.Serve(ctx, lis) }()
			err = measure(fmt.Sprintf("%v", mode), lis.Addr().String(), srv.Stats)
			cancel()
			<-done
			if err != nil {
				return err
			}
		}
	}
	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}

func parseStreams(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad stream count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "recycledb-bench:", err)
	os.Exit(1)
}

// runScaling sweeps the intra-query worker budget with a single client per
// run, so each statement owns the whole budget: this is the morsel-driven
// speedup of one query, per recycling mode, on this machine. Speedups are
// relative to the same mode at one worker; on a box with W cores the
// scan-heavy TPC-H mix should approach min(W, workers) until merge and
// serial consumers dominate.
func runScaling(rep *benchReport, queries int64, cat *catalog.Catalog, cacheBytes int64) {
	fmt.Printf("--- intra-query scaling (1 client) ---\n")
	budget := queries / 4
	if budget < 100 {
		budget = 100
	}
	for _, mode := range harness.Modes {
		base := 0.0
		for _, workers := range []int{1, 2, 4, 8, 16} {
			eng := recycledb.NewWithCatalog(recycledb.Config{
				Mode: mode, CacheBytes: cacheBytes, Parallelism: workers}, cat)
			mix := harness.TPCHMix(4, 1)
			exec := harness.EngineExec(eng)
			workload.RunClients(workload.ClientsConfig{
				Clients: 1, MaxQueries: 32, Seed: 11,
			}, mix, exec) // warm
			res := workload.RunClients(workload.ClientsConfig{
				Clients: 1, MaxQueries: budget, Seed: 2,
			}, mix, exec)
			row := &scaleRow{
				Mode:          fmt.Sprintf("%v", mode),
				Workers:       workers,
				QueriesPerSec: res.QPS(),
				P95Micros:     res.Percentile(95).Microseconds(),
			}
			if workers == 1 {
				base = row.QueriesPerSec
			}
			if base > 0 {
				row.SpeedupVs1 = row.QueriesPerSec / base
			}
			rep.Scaling = append(rep.Scaling, row)
			fmt.Printf("%-12s %2d workers %8.0f q/s  p95 %6dus  speedup %.2fx\n",
				row.Mode, row.Workers, row.QueriesPerSec, row.P95Micros, row.SpeedupVs1)
		}
	}
}
