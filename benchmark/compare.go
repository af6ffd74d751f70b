package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchSpec is the part of BENCHMARK.json that -compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// groupRuns collects, per workload in first-seen order, the values of every
// metric over the untraced runs in runs.
func groupRuns(runs []runResult) (order []string, values map[string]map[string][]float64, errRate map[string]float64) {
	values = make(map[string]map[string][]float64)
	attempted, failed := make(map[string]int64), make(map[string]int64)
	for _, r := range runs {
		if r.Trace {
			continue
		}
		if values[r.Workload] == nil {
			values[r.Workload] = make(map[string][]float64)
			order = append(order, r.Workload)
		}
		for name, v := range r.Metrics {
			values[r.Workload][name] = append(values[r.Workload][name], v.Value)
		}
		attempted[r.Workload] += r.Attempted
		failed[r.Workload] += r.Failed
	}
	errRate = make(map[string]float64)
	for w, n := range attempted {
		errRate[w] = float64(failed[w]) / float64(n)
	}
	return order, values, errRate
}

// summarize prints median, quartiles and spread per workload and metric
// over runs, and the Fig. 7 ratio when both stream workloads ran.
func summarize(out io.Writer, runs []runResult) {
	order, values, errRate := groupRuns(runs)
	fmt.Fprintf(out, "\n%-14s %-10s %3s %14s %14s %14s %8s\n", "workload", "metric", "n", "median", "q1", "q3", "spread")
	for _, w := range order {
		for _, d := range endToEnd {
			v := values[w][d.name]
			if len(v) == 0 {
				continue
			}
			q1, med, q3 := v[0], v[0], v[0]
			if len(v) > 1 {
				q1, med, q3 = quartiles(v)
			}
			fmt.Fprintf(out, "%-14s %-10s %3d %14.4f %14.4f %14.4f %7.2f%%\n", w, d.name, len(v), med, q1, q3, 100*spread(v))
		}
		fmt.Fprintf(out, "%-14s %-10s %18.6f\n", w, "error_rate", errRate[w])
	}
	if off, spec := values["streams_off"]["qps"], values["streams_spec"]["qps"]; len(off) > 0 && len(spec) > 0 {
		fmt.Fprintf(out, "fig7_ratio %.3f (qps streams_spec %.2f / qps streams_off %.2f)\n",
			median(spec)/median(off), median(spec), median(off))
	}
}

type verdict string

const (
	improved   verdict = "improved"
	unchanged  verdict = "unchanged"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved"
)

// judge compares a metric's runs on the old and the new side. change is the
// new median's relative gain in the metric's good direction; noise is the
// wider of the two sides' spreads. A loss beyond the bound is a regression
// whatever the noise; a gain counts only when it exceeds both sides' spreads
// together; otherwise the metric is unchanged, unless the noise is wider
// than the bound, in which case the runs cannot tell. "improved" is a label,
// not a claim: a claim needs the paired runs the metrics guide describes.
func judge(old, new []float64, higherBetter bool, bound float64) (v verdict, noise float64) {
	mo, mn := median(old), median(new)
	if mo == 0 {
		return unresolved, 0
	}
	change := (mn - mo) / mo
	if !higherBetter {
		change = -change
	}
	noise = max(spread(old), spread(new))
	switch {
	case change < -bound:
		return regressed, noise
	case change > 0 && change > spread(old)+spread(new):
		return improved, noise
	case noise > bound:
		return unresolved, noise
	}
	return unchanged, noise
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// their ratio and the verdict. ok is false on any regression or a higher
// error rate.
func compareFiles(out io.Writer, specPath, oldPath, newPath string) (ok bool, err error) {
	var spec benchSpec
	if err := readJSON(specPath, &spec); err != nil {
		return false, err
	}
	var oldFile, newFile runFile
	if err := readJSON(oldPath, &oldFile); err != nil {
		return false, err
	}
	if err := readJSON(newPath, &newFile); err != nil {
		return false, err
	}
	order, oldVals, oldErr := groupRuns(oldFile.Runs)
	_, newVals, newErr := groupRuns(newFile.Runs)
	ok = true
	fmt.Fprintf(out, "%-14s %-10s %14s %14s %22s %8s %7s  %s\n",
		"workload", "metric", "old median", "new median", "new/old", "spread", "bound", "verdict")
	for _, w := range order {
		if newVals[w] == nil {
			fmt.Fprintf(out, "%-14s missing from %s\n", w, newPath)
			ok = false
			continue
		}
		for _, m := range spec.EndToEnd {
			o, n := oldVals[w][m.Name], newVals[w][m.Name]
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			v, noise := judge(o, n, m.Better == "higher", m.Bound)
			if v == regressed {
				ok = false
			}
			fmt.Fprintf(out, "%-14s %-10s %14.4f %14.4f %8.4f (base %9.4g) %7.2f%% %6.0f%%  %s\n",
				w, m.Name, median(o), median(n), median(n)/median(o), median(o), 100*noise, 100*m.Bound, v)
		}
		if newErr[w] > oldErr[w] {
			ok = false
			fmt.Fprintf(out, "%-14s error_rate %.6f -> %.6f  regressed\n", w, oldErr[w], newErr[w])
		}
	}
	return ok, nil
}

func readJSON(path string, v any) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
