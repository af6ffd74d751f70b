// Command benchmark is recycledb's one measurement spine: five named
// workloads, each reporting the same end-to-end metrics (what a user of the
// engine sees) and, in a separate traced run, per-layer metrics (where the
// time and the work went). BENCHMARK.json at the repository root names the
// metrics, their directions and regression bounds; README.md in this
// directory defines them.
//
//	bash benchmark/run.sh --workload wire_hot --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh --workload all --seed 1 -repeat 5 -out benchmark/out/a.json
//	bash benchmark/run.sh -compare benchmark/out/a.json benchmark/out/b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd and perLayer must list exactly what BENCHMARK.json lists (a test
// checks it): every run prints every metric of its kind, on every workload.
var endToEnd = []metricDef{
	{"qps", "1/s"},
	{"p50_us", "us"},
	{"heap_mb", "MiB"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"exec.run_us", "us"},
	{"exec.rows_per_op", "rows"},
	{"exec.cold_us", "us"},
	{"core.match_us", "us"},
	{"core.match_us_q1", "us"},
	{"core.match_us_q2", "us"},
	{"core.match_us_q3", "us"},
	{"core.match_us_q4", "us"},
	{"core.root_hit_rate", "ratio"},
	{"core.reuse_per_op", "count"},
	{"core.materializations_per_op", "count"},
	{"core.stalls", "count"},
	{"core.evictions", "count"},
	{"core.rejected", "count"},
	{"core.invalidated", "count"},
	{"core.delta_extended", "count"},
	{"core.graph_nodes", "count"},
	{"core.cache_mb", "MiB"},
	{"sql.prepare_us", "us"},
	{"sql.compile_us", "us"},
	{"engine.open_us", "us"},
	{"engine.finish_us", "us"},
	{"opt.optimize_us", "us"},
	{"server.overhead_us", "us"},
	{"server.bytes_out_per_op", "bytes"},
	{"server.admission_waits", "count"},
	{"server.errors_sent", "count"},
	{"vector.clone_mb_s", "MiB/s"},
	{"catalog.commit_us", "us"},
	{"catalog.write_p50_us", "us"},
	{"trace.op_us", "us"},
	{"trace.ops", "count"},
	{"trace.overhead_pct", "%"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload. The first four fields are the
// result line the acceptance driver reads; the rest is for people and for
// -compare.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	Workload string             `json:"workload,omitempty"`
	Seed     int64              `json:"seed,omitempty"`
	Trace    bool               `json:"trace,omitempty"`
	Info     map[string]float64 `json:"info,omitempty"`
	Failure  string             `json:"failure,omitempty"`
}

func (r *runResult) line() string {
	buf, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err)
	}
	return string(buf)
}

// runFile is what -out writes and -compare reads.
type runFile struct {
	GoVersion  string      `json:"go_version"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	NumCPU     int         `json:"num_cpu"`
	Commit     string      `json:"commit"`
	Claim      *string     `json:"claim"` // this benchmark claims no gain
	Runs       []runResult `json:"runs"`
}

// setupRepeats: set-up runs this many times per invocation and setup_s is
// the median, because one set-up (~0.2-1 s) is short enough for a single
// GC cycle or page-fault burst to move it by a tenth.
const setupRepeats = 5

// runOnce sets the system up, measures one window of w, checks the results
// and returns the metrics of the requested kind.
func runOnce(w *workload, seed int64, window time.Duration, trace bool, outDir string) (*runResult, error) {
	// The contract allows a run 180 s; a hung server or engine must end the
	// process with a failure, not sit until it is killed.
	watchdog := time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "benchmark: run exceeded 170 s, giving up")
		os.Exit(3)
	})
	defer watchdog.Stop()

	repeats := setupRepeats
	if trace {
		repeats = 1 // set-up time is an end-to-end metric
	}
	var setups []float64
	var e *env
	for i := 0; i < repeats; i++ {
		if e != nil {
			e.close()
			runtime.GC() // the previous copy of the dataset
		}
		t0 := time.Now()
		var err error
		if e, err = setUp(w, seed, w.wire, numClients); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.close()

	win := timedWindow(w, e, seed, window)
	failed, coverage, firstErr := verify(w, e, win.tallies)

	res := &runResult{Workload: w.name, Seed: seed, Trace: trace,
		Metrics: make(map[string]metricValue), Info: make(map[string]float64)}
	var reads, writes []float64
	var qps float64
	var rows, bytes int64
	for i := range win.tallies {
		t := &win.tallies[i]
		res.Attempted += t.ops
		failed += t.failed
		if firstErr == nil {
			firstErr = t.firstFailure
		}
		// Each client's rate over its own span: a client that finishes its
		// last op early does not idle on the other's account.
		qps += float64(t.ops) / t.elapsed.Seconds()
		reads = append(reads, t.readUS...)
		writes = append(writes, t.writeUS...)
		rows += t.rows
		bytes += t.bytes
	}
	if res.Attempted == 0 || len(reads) == 0 {
		return nil, fmt.Errorf("no op completed within %v", window)
	}
	res.Failed = min(failed, res.Attempted)
	res.Correct = res.Failed == 0
	if firstErr != nil {
		res.Failure = firstErr.Error()
	}
	sort.Float64s(reads)
	sort.Float64s(writes)

	info := res.Info
	info["error_rate"] = float64(res.Failed) / float64(res.Attempted)
	info["oracle_coverage"] = coverage
	info["n_reads"] = float64(len(reads))
	info["p95_us"] = percentile(reads, 95)
	info["p99_us"] = percentile(reads, 99)
	if p := supportedPercentile(len(reads)); p > 0 {
		info["pmax"] = p
		info["pmax_us"] = percentile(reads, p)
	}
	info["allocs_per_op"] = win.allocs
	info["bytes_per_op"] = win.bytes
	info["rows_per_op"] = float64(rows) / float64(len(reads))
	if len(writes) > 0 {
		info["write_p50_us"] = percentile(writes, 50)
	}

	if !trace {
		e2e := map[string]float64{
			"qps":     qps,
			"p50_us":  percentile(reads, 50),
			"heap_mb": win.heapMB,
			"setup_s": median(setups),
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricValue{e2e[d.name], d.unit}
		}
		return res, nil
	}

	m := make(map[string]float64)
	ops := float64(res.Attempted)
	b, a := win.before.rec, win.after.rec
	queries := float64(a.Queries - b.Queries)
	if queries > 0 {
		m["core.reuse_per_op"] = float64(a.Reuses-b.Reuses+a.SubsumptionReuse-b.SubsumptionReuse) / queries
		m["core.materializations_per_op"] = float64(a.Materializations-b.Materializations) / queries
	}
	m["core.stalls"] = float64(a.Stalls - b.Stalls)
	m["core.evictions"] = float64(a.Evictions - b.Evictions)
	m["core.rejected"] = float64(a.Rejected - b.Rejected)
	m["core.invalidated"] = float64(a.Invalidated - b.Invalidated)
	m["core.delta_extended"] = float64(a.DeltaExtended - b.DeltaExtended)
	m["core.graph_nodes"] = float64(a.GraphNodes)
	m["core.cache_mb"] = float64(a.CacheBytes) / (1 << 20)
	m["server.bytes_out_per_op"] = float64(bytes) / ops
	m["server.admission_waits"] = float64(win.after.srv.AdmissionWaits - win.before.srv.AdmissionWaits)
	m["server.errors_sent"] = float64(win.after.srv.ErrorsSent - win.before.srv.ErrorsSent)
	m["catalog.write_p50_us"] = info["write_p50_us"]
	if err := tracedRun(w, seed, window, outDir, m); err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	if err := probeLayers(w, seed, loadCatalog(), m); err != nil {
		return nil, err
	}
	for _, d := range perLayer {
		res.Metrics[d.name] = metricValue{m[d.name], d.unit}
	}
	return res, nil
}

func (r *runResult) print() {
	fmt.Printf("== %s seed=%d trace=%v attempted=%d failed=%d\n", r.Workload, r.Seed, r.Trace, r.Attempted, r.Failed)
	if r.Failure != "" {
		fmt.Printf("   first failure: %s\n", r.Failure)
	}
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("   %-30s %14.4f %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
	names := make([]string, 0, len(r.Info))
	for k := range r.Info {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("   (%s %.4f)\n", k, r.Info[k])
	}
}

// commit is the checkout's revision as run.sh found it; a checkout that is
// not a git repository has none.
func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run, or all")
		seed         = flag.Int64("seed", 1, "workload seed: the operations, not the data, derive from it")
		seconds      = flag.Int("seconds", 10, "length of the timed window")
		trace        = flag.Int("trace", 0, "1 = report the per-layer metrics (adds a traced replay and layer probes)")
		repeat       = flag.Int("repeat", 1, "measure this many times, at seeds seed, seed+1, …, and summarize")
		out          = flag.String("out", "", "also write every run to this JSON file (input to -compare)")
		outDir       = flag.String("outdir", "benchmark/out", "directory for trace files")
		spec         = flag.String("spec", "BENCHMARK.json", "metric bounds for -compare")
		compare      = flag.Bool("compare", false, "compare two -out files: -compare old.json new.json")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two files, got %d", flag.NArg()))
		}
		ok, err := compareFiles(os.Stdout, *spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	var run []*workload
	if *workloadName == "all" {
		run = workloads
	} else if w := workloadByName(*workloadName); w != nil {
		run = []*workload{w}
	} else {
		fatal(fmt.Errorf("unknown workload %q", *workloadName))
	}
	if *seconds < 1 || *repeat < 1 {
		fatal(fmt.Errorf("-seconds and -repeat must be at least 1"))
	}

	file := runFile{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), Commit: commit()}
	fmt.Printf("recycledb benchmark: %s, gomaxprocs %d, num_cpu %d, commit %s, %d closed-loop clients, sf %g + %d objects\n",
		file.GoVersion, file.GOMAXPROCS, file.NumCPU, file.Commit, numClients, scaleFactor, skyObjects)
	var last *runResult
	for _, w := range run {
		for i := 0; i < *repeat; i++ {
			res, err := runOnce(w, *seed+int64(i), time.Duration(*seconds)*time.Second, *trace == 1, *outDir)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", w.name, err))
			}
			res.print()
			file.Runs = append(file.Runs, *res)
			last = res
		}
	}
	if *repeat > 1 || len(run) > 1 {
		summarize(os.Stdout, file.Runs)
	}
	if *out != "" {
		buf, err := json.MarshalIndent(&file, "", " ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	fmt.Println(last.line())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
