package recycledb_test

// Recorded reference for the golden matrices. Every executor configuration
// now shares one fragment interior, so a live "baseline engine" would prove
// nothing about it; the ground truth is instead a file of per-query digests
// recorded from the last commit that still had the serial, unfused,
// kernels-off pull interior (see CHANGES.md for the commit and command).
//
// A digest is the canonical form of golden_test.go folded down to what a
// file can hold: total rows, distinct canonical keys, a hash over the sorted
// key→count pairs, and per-float-column sums — plain and key-weighted, so
// float values that move between keys change the digest — compared with
// canonDiff's tolerance.
//
//	go test -run TestGolden -update .
//
// re-records the file in the checkout it runs in: each plan is resolved as
// written and run straight through the executor at one worker — no
// optimizer, no rewriter, no recycler.

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"testing"

	"recycledb/internal/catalog"
	"recycledb/internal/exec"
	"recycledb/internal/plan"
	"recycledb/internal/workload"
)

var updateGolden = flag.Bool("update", false, "re-record testdata/golden_digests.json from the reference engine")

const goldenDigestFile = "testdata/golden_digests.json"

// goldenDigest is one query's recorded result summary.
type goldenDigest struct {
	Label string    `json:"label"`
	Rows  int       `json:"rows"`
	Keys  int       `json:"keys"`
	Hash  string    `json:"hash"`            // FNV-1a over sorted "key\x00count\n"
	Sums  []float64 `json:"sums,omitempty"`  // per float column
	WSums []float64 `json:"wsums,omitempty"` // per float column, weighted by a key hash in [1,2)
}

// digestOf folds a canonical result into its digest.
func digestOf(label string, canon map[string]*canonRow) goldenDigest {
	keys := make([]string, 0, len(canon))
	for k := range canon {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	d := goldenDigest{Label: label, Keys: len(keys)}
	h := fnv.New64a()
	for _, k := range keys {
		cr := canon[k]
		d.Rows += cr.count
		fmt.Fprintf(h, "%s\x00%d\n", k, cr.count)
		kh := fnv.New64a()
		kh.Write([]byte(k))
		w := 1 + float64(kh.Sum64()>>11)/(1<<53)
		if d.Sums == nil {
			d.Sums = make([]float64, len(cr.sums))
			d.WSums = make([]float64, len(cr.sums))
		}
		for i, s := range cr.sums {
			d.Sums[i] += s
			d.WSums[i] += w * s
		}
	}
	d.Hash = fmt.Sprintf("%016x", h.Sum64())
	return d
}

// diff compares a result against the recorded digest and returns a
// description of the first difference, or "".
func (want goldenDigest) diff(canon map[string]*canonRow) string {
	got := digestOf(want.Label, canon)
	switch {
	case want.Rows != got.Rows:
		return fmt.Sprintf("row count: recorded %d, got %d", want.Rows, got.Rows)
	case want.Keys != got.Keys:
		return fmt.Sprintf("distinct keys: recorded %d, got %d", want.Keys, got.Keys)
	case want.Hash != got.Hash:
		return fmt.Sprintf("key→count hash: recorded %s, got %s", want.Hash, got.Hash)
	case len(want.Sums) != len(got.Sums):
		return fmt.Sprintf("float columns: recorded %d, got %d", len(want.Sums), len(got.Sums))
	}
	for i := range want.Sums {
		if floatsDiffer(want.Sums[i], got.Sums[i]) {
			return fmt.Sprintf("float col %d sum: recorded %v, got %v", i, want.Sums[i], got.Sums[i])
		}
		if floatsDiffer(want.WSums[i], got.WSums[i]) {
			return fmt.Sprintf("float col %d key-weighted sum: recorded %v, got %v", i, want.WSums[i], got.WSums[i])
		}
	}
	return ""
}

// runAsWritten is the reference execution: the plan resolved as written and
// run by the executor alone at one worker — no optimizer, rewriter or
// recycler. rec, if not nil, receives the executor's counts.
func runAsWritten(cat *catalog.Catalog, q *plan.Node, rec *exec.StmtRecord) (*catalog.Result, error) {
	p := q.Clone()
	if err := p.Resolve(cat); err != nil {
		return nil, err
	}
	ectx := &exec.Ctx{Cat: cat, Parallelism: 1, Record: rec}
	op, err := exec.Build(ectx, p, nil, nil)
	if err != nil {
		return nil, err
	}
	return exec.Run(ectx, op)
}

// goldenSection returns the recorded digests of queries for one section (a
// test's catalog state). Under -update it first records them: each query
// runs as written through exec.Build/exec.Run over cat, outside any engine,
// and the section is written to the digest file.
func goldenSection(t *testing.T, section string, cat *catalog.Catalog, queries []workload.Query) []goldenDigest {
	t.Helper()
	file := make(map[string][]goldenDigest)
	if raw, err := os.ReadFile(goldenDigestFile); err == nil {
		if err := json.Unmarshal(raw, &file); err != nil {
			t.Fatalf("%s: %v", goldenDigestFile, err)
		}
	} else if !*updateGolden {
		t.Fatalf("%v (record it with: go test -run TestGolden -update .)", err)
	}
	if *updateGolden {
		ds := make([]goldenDigest, len(queries))
		for i, q := range queries {
			res, err := runAsWritten(cat, q.Plan, nil)
			if err != nil {
				t.Fatalf("recording %s %s: %v", section, q.Label, err)
			}
			ds[i] = digestOf(q.Label, canonBatches(res.Schema, res.Batches))
		}
		file[section] = ds
		raw, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			t.Fatalf("recording %s: %v", section, err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenDigestFile, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ds := file[section]
	if len(ds) != len(queries) {
		t.Fatalf("%s: section %q has %d digests for %d queries; re-record with -update",
			goldenDigestFile, section, len(ds), len(queries))
	}
	for i, q := range queries {
		if ds[i].Label != q.Label {
			t.Fatalf("%s: section %q entry %d is %q, query is %q; re-record with -update",
				goldenDigestFile, section, i, ds[i].Label, q.Label)
		}
	}
	return ds
}
