package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {95, 10}, {90, 9}, {10, 1}, {100, 10}, {0.1, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 95); got != 7 {
		t.Errorf("single sample: %v", got)
	}
	if p := supportedPercentile(1000); p != 99 {
		t.Errorf("supportedPercentile(1000) = %v, want 99", p)
	}
	if p := supportedPercentile(10); p != 0 {
		t.Errorf("supportedPercentile(10) = %v, want 0", p)
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4) gives.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{10, 20, 40}, [3]float64{10, 20, 40}},
	} {
		q1, med, q3 := quartiles(c.v)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
	}
	if got := spread([]float64{90, 100, 110, 100, 100}); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("spread = %v, want 0.1", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},   // root
		{ID: 1, Parent: 0, Start: 10, End: 40},    // child
		{ID: 2, Parent: 1, Start: 15, End: 25},    // nested grandchild
		{ID: 3, Parent: 0, Start: 30, End: 60},    // overlaps child 1 by 10
		{ID: 4, Parent: 0, Start: 90, End: 120},   // sticks out of the root
		{ID: 5, Parent: 0, Start: 35, End: 38},    // wholly inside covered time
		{ID: 6, Parent: -1, Start: 200, End: 250}, // second op, no children
	}
	want := []int64{40, 20, 10, 30, 30, 3, 50}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
	means := layerMeans([]span{
		{ID: 0, Parent: -1, Layer: "op", Name: "a", Start: 0, End: 10_000},
		{ID: 1, Parent: 0, Layer: "exec", Name: "run", Start: 0, End: 4_000},
		{ID: 2, Parent: -1, Layer: "op", Name: "b", Start: 0, End: 10_000},
		{ID: 3, Parent: 2, Layer: "exec", Name: "run", Start: 0, End: 2_000},
	}, 2)
	if means["exec.run"] != 3 {
		t.Errorf("mean exec.run = %v µs, want 3", means["exec.run"])
	}
}

func TestSequenceDeterminism(t *testing.T) {
	for _, w := range workloads {
		a, b, c := sequenceHash(w, 1, 200), sequenceHash(w, 1, 200), sequenceHash(w, 2, 200)
		if a != b {
			t.Errorf("%s: same seed gave different sequences", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same sequence", w.name)
		}
	}
}

func TestClientsGetDifferentOps(t *testing.T) {
	for _, w := range workloads {
		a, b := w.gen(1, 0), w.gen(1, 1)
		same := 0
		for i := 0; i < 100; i++ {
			if a.next().key == b.next().key {
				same++
			}
		}
		if same > 50 {
			t.Errorf("%s: clients 0 and 1 agree on %d of 100 ops", w.name, same)
		}
	}
}

func TestZipf(t *testing.T) {
	const n = 72
	z := newZipf(n, 1.0)
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, n)
	const draws = 200000
	for i := 0; i < draws; i++ {
		k := z.sample(rng)
		if k < 0 || k >= n {
			t.Fatalf("rank %d out of [0,%d)", k, n)
		}
		counts[k]++
	}
	var h float64
	for k := 1; k <= n; k++ {
		h += 1 / float64(k)
	}
	for _, k := range []int{0, 1, 9, n - 1} {
		want := draws / (float64(k+1) * h)
		if got := float64(counts[k]); math.Abs(got-want) > 0.1*want+30 {
			t.Errorf("rank %d drawn %v times, want about %.0f", k, got, want)
		}
	}
}

func TestChurnWritesAreConsistent(t *testing.T) {
	src := workloadByName("wire_churn").gen(3, 1)
	live := make(map[string]bool)
	var reads, inserts, deletes int
	for i := 0; i < 5000; i++ {
		o := src.next()
		switch o.kind {
		case opRead:
			reads++
		case opInsert:
			inserts++
			if len(o.text) != insertRows*lineitemCols {
				t.Fatalf("insert binds %d values", len(o.text))
			}
			if live[o.text[0]] {
				t.Fatalf("order key %s inserted twice", o.text[0])
			}
			live[o.text[0]] = true
		case opDelete:
			deletes++
			if !live[o.text[0]] {
				t.Fatalf("delete of order key %s, which is not live", o.text[0])
			}
			delete(live, o.text[0])
		}
	}
	if w := inserts + deletes; w < 400 || w > 600 {
		t.Errorf("%d writes in 5000 ops, want about 10%%", w)
	}
	if deletes == 0 || inserts < 6*deletes {
		t.Errorf("%d inserts, %d deletes: want one delete per eight writes", inserts, deletes)
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	noisy := []float64{80, 120, 100, 70, 130}
	for _, c := range []struct {
		name     string
		old, new []float64
		higher   bool
		bound    float64
		want     verdict
	}{
		{"same", steady, steady, true, 0.05, unchanged},
		{"small loss within bound", steady, []float64{97, 98, 96, 97, 97}, true, 0.05, unchanged},
		{"loss beyond bound", steady, []float64{90, 91, 89, 90, 90}, true, 0.05, regressed},
		{"gain beyond noise", steady, []float64{110, 111, 109, 110, 110}, true, 0.05, improved},
		{"lower is better: drop is a gain", steady, []float64{90, 91, 89, 90, 90}, false, 0.05, improved},
		{"lower is better: rise is a loss", steady, []float64{110, 111, 109, 110, 110}, false, 0.05, regressed},
		{"noise wider than bound", noisy, noisy, true, 0.05, unresolved},
		{"loss beyond bound despite noise", noisy, []float64{50, 60, 40, 55, 45}, true, 0.05, regressed},
	} {
		if got, _ := judge(c.old, c.new, c.higher, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, qps float64, failed int64) string {
		var f runFile
		for i := 0; i < 5; i++ {
			f.Runs = append(f.Runs, runResult{Workload: "wire_hot", Attempted: 1000, Failed: failed,
				Metrics: map[string]metricValue{"qps": {qps + float64(i), "1/s"}}})
		}
		buf, _ := json.Marshal(&f)
		path := dir + "/" + name
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 1000, 0)
	for _, c := range []struct {
		name   string
		path   string
		wantOK bool
		word   string
	}{
		{"same", write("same.json", 1000, 0), true, "unchanged"},
		{"slower", write("slow.json", 600, 0), false, "regressed"},
		{"faster", write("fast.json", 1300, 0), true, "improved"},
		{"failing", write("fail.json", 1000, 3), false, "error_rate"},
	} {
		var out strings.Builder
		ok, err := compareFiles(&out, "../BENCHMARK.json", base, c.path)
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.wantOK || !strings.Contains(out.String(), c.word) {
			t.Errorf("%s: ok=%v, output:\n%s", c.name, ok, out.String())
		}
	}
}

// BENCHMARK.json and the program must name the same workloads and metrics.
func TestSpecMatchesProgram(t *testing.T) {
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q/%q vs %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts differ: %d/%d end-to-end, %d/%d per-layer",
			len(spec.EndToEnd), len(endToEnd), len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: %s %s vs %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: %s %s vs %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestSmoke runs every workload end to end on a fifth of the data with a
// short window: set-up, clients, oracle, metrics; and one traced run.
func TestSmoke(t *testing.T) {
	defer func(sf float64) { scaleFactor = sf }(scaleFactor)
	scaleFactor = 0.01
	for _, w := range workloads {
		res, err := runOnce(w, 1, 300*time.Millisecond, false, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d (%s)", w.name, res.Correct, res.Attempted, res.Failed, res.Failure)
		}
		for _, d := range endToEnd {
			if v := res.Metrics[d.name].Value; !(v > 0) {
				t.Errorf("%s: %s = %v", w.name, d.name, v)
			}
		}
	}
	dir := t.TempDir()
	res, err := runOnce(workloadByName("wire_churn"), 2, 200*time.Millisecond, true, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("traced wire_churn: failed=%d (%s)", res.Failed, res.Failure)
	}
	for _, name := range []string{"exec.run_us", "engine.open_us", "core.match_us", "sql.prepare_us",
		"catalog.commit_us", "exec.cold_us", "opt.optimize_us", "sql.compile_us", "vector.clone_mb_s", "trace.ops"} {
		if name == "catalog.commit_us" && res.Metrics["trace.ops"].Value < churnWriteEach {
			continue // a slow box (-race) may not reach the first write
		}
		if v := res.Metrics[name].Value; !(v > 0) {
			t.Errorf("traced wire_churn: %s = %v", name, v)
		}
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("traced run printed %d metrics, want %d", len(res.Metrics), len(perLayer))
	}
	if _, err := os.Stat(dir + "/trace-wire_churn.json"); err != nil {
		t.Error(err)
	}
}
