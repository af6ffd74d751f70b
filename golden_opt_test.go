package recycledb_test

// Optimizer golden equivalence: the optimizer may change plan shapes —
// conjunct chain order, join order, projection placement — but never
// results. Every query in the golden set (plus permuted-conjunct
// near-variants, the shapes the optimizer exists to canonicalize) must
// produce the recorded serial-unoptimized ground truth under the full
// execution matrix: every recycling mode × parallelism {1,4}, cold cache
// and warm.

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"recycledb"

	"recycledb/internal/catalog"
	"recycledb/internal/core"
	"recycledb/internal/exec"
	"recycledb/internal/harness"
	"recycledb/internal/opt"
	"recycledb/internal/plan"
	"recycledb/internal/skyserver"
	"recycledb/internal/tpch"
	"recycledb/internal/workload"
)

// optGoldenQueries is the golden set plus permuted-conjunct draws: the same
// filter parameters written in shuffled conjunct order, which only the
// optimizer collapses to one recycler shape.
func optGoldenQueries() []workload.Query {
	out := goldenQueries()
	rng := rand.New(rand.NewSource(99))
	for _, pat := range harness.PermutedMix(3, 5) {
		for d := 0; d < 3; d++ {
			out = append(out, workload.Query{
				Label: fmt.Sprintf("%s-%d", pat.Label, d),
				Plan:  pat.Make(rng),
			})
		}
	}
	return out
}

func TestGoldenEquivalenceOptimizer(t *testing.T) {
	cat := harness.MixedCatalog(0.002, 4000, 1)
	queries := optGoldenQueries()

	// Ground truth: the recorded digests (serial, unoptimized, no recycling).
	want := goldenSection(t, "optimizer", cat, queries)

	for _, mode := range harness.Modes {
		for _, par := range []int{1, 4} {
			name := fmt.Sprintf("%v/par=%d", mode, par)
			eng := recycledb.NewWithCatalog(recycledb.Config{Mode: mode, Parallelism: par}, cat)
			// Round 0 exercises cold paths (materialization, admission),
			// round 1 warm reuse and subsumption under the
			// optimizer-chosen shapes.
			for round := 0; round < 2; round++ {
				for i, q := range queries {
					r, err := eng.ExecuteContext(context.Background(), q.Plan)
					if err != nil {
						t.Fatalf("%s round %d %s: %v", name, round, q.Label, err)
					}
					if d := want[i].diff(canonResult(r)); d != "" {
						t.Fatalf("%s round %d %s: %s", name, round, q.Label, d)
					}
				}
			}
		}
	}
}

// TestOptimizerMemoDeterminism checks that optimizer enumeration is
// deterministic: two fresh engines render byte-identical plans (including
// cost estimates) for the same query, differently-written conjunct orders
// canonicalize to the same plan, and after identical executions the warm
// plans — measured costs included, which are counted work, not time — are
// byte-identical too, across conjunct orders and across engines. The second
// engine runs 8 workers over 256-row vectors, so the measured costs it
// renders were priced from rows counted by parallel fragments; they must
// equal the serial engine's.
func TestOptimizerMemoDeterminism(t *testing.T) {
	const qA = `SELECT l_quantity, l_extendedprice FROM lineitem WHERE l_quantity < 25 AND l_extendedprice > 1000 AND l_tax < 1`
	const qB = `SELECT l_quantity, l_extendedprice FROM lineitem WHERE l_tax < 1 AND l_quantity < 25 AND l_extendedprice > 1000`

	cat := func() *catalog.Catalog { return harness.MixedCatalog(0.002, 4000, 1) }
	tun := recycledb.DefaultTuning()
	tun.VectorSize = 256

	// Cold engines carry no timing-dependent state: full Explain output —
	// shapes, cardinalities, costs — must agree across engines.
	a := recycledb.NewWithCatalog(recycledb.Config{Mode: recycledb.History, Parallelism: 1}, cat())
	b := recycledb.NewTuned(recycledb.Config{Mode: recycledb.History, Parallelism: 8}, tun, cat())
	ea, err := recycledb.ExplainText(a, qA)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := recycledb.ExplainText(b, qA)
	if err != nil {
		t.Fatal(err)
	}
	if ea != eb {
		t.Fatalf("cold explain differs across engines:\n%s\n--- vs ---\n%s", ea, eb)
	}

	// Canonicalization: the same conjuncts written in a different order
	// must plan identically.
	eBOrder, err := recycledb.ExplainText(a, qB)
	if err != nil {
		t.Fatal(err)
	}
	if ea != eBOrder {
		t.Fatalf("conjunct order changed the plan:\n%s\n--- vs ---\n%s", ea, eBOrder)
	}

	// Warm determinism: after the same executions mutate recycler state,
	// re-planning renders the same bytes for either conjunct order and on
	// either engine.
	for _, e := range []*recycledb.Engine{a, b} {
		var frags int64
		for i := 0; i < 3; i++ {
			rows, err := e.Query(context.Background(), qA)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rows.Collect(); err != nil {
				t.Fatal(err)
			}
			frags += recycledb.Record(rows).ParallelFragments.Load()
		}
		if parallel := frags > 0; parallel != (e == b) {
			t.Fatalf("engine at %d workers built parallel fragments: %v", e.Workers(), parallel)
		}
	}
	w1, err := recycledb.ExplainText(a, qA)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(w1, "[measured ") {
		t.Fatalf("warm explain carries no measured cost:\n%s", w1)
	}
	for _, c := range []struct {
		name string
		e    *recycledb.Engine
		q    string
	}{{"conjunct order", a, qB}, {"engine", b, qA}} {
		w2, err := recycledb.ExplainText(c.e, c.q)
		if err != nil {
			t.Fatal(err)
		}
		if w1 != w2 {
			t.Fatalf("warm re-plan differs by %s:\n%s\n--- vs ---\n%s", c.name, w1, w2)
		}
	}
}

// TestOptimizerBuildRowsNoWorseThanWritten holds the cost model to the
// hand-written TPC-H plans: for every pattern at three parameter draws, the
// optimized plan inserts at most 1.25x the hash-join build rows the plan as
// written does. Build rows are a count, not a clock, so the check is exact
// and repeatable; a join estimate that puts lineitem on the build side
// (min(|L|,|R|) did, for Q2/Q5/Q7/Q9/Q11) fails it by 2-36x.
func TestOptimizerBuildRowsNoWorseThanWritten(t *testing.T) {
	cat := catalog.New()
	tpch.Generate(cat, 0.01, 1)
	eng := recycledb.NewWithCatalog(recycledb.Config{Mode: recycledb.Off, Parallelism: 1}, cat)
	for _, s := range tpch.Streams(3, 7) {
		for _, p := range s.Queries {
			q := tpch.Build(p)
			var asWritten exec.StmtRecord
			if _, err := runAsWritten(cat, q, &asWritten); err != nil {
				t.Fatalf("%v as written: %v", p, err)
			}
			_, rec, err := executeRecorded(eng, q)
			if err != nil {
				t.Fatalf("%v optimized: %v", p, err)
			}
			written, optimized := asWritten.JoinBuildRows.Load(), rec.JoinBuildRows.Load()
			t.Logf("Q%-2d written %7d optimized %7d", p.Q, written, optimized)
			if float64(optimized) > 1.25*float64(written) {
				t.Errorf("%v: optimized plan builds %d rows, written plan %d (%.2fx > 1.25x)",
					p, optimized, written, float64(optimized)/float64(max(written, 1)))
			}
		}
	}
}

const optShapesFile = "testdata/opt_shapes.json"

// optShape is one query's optimized plan, pinned by the FNV-1a hash of its
// canonical signature (opt.ShapeKey).
type optShape struct {
	Label string `json:"label"`
	Shape string `json:"shape"`
}

// TestOptimizedShapesUnchanged pins the plans the optimizer chooses: every
// TPC-H pattern at three parameter draws plus the SkyServer queries,
// optimized cold (no recycler) and against a recycler warmed by one serial
// History-style pass over the same set. The optimizer's internals may change
// how fast it plans, never what it plans; -update re-records the file.
//
// The warming pass applies History mode's rule — store what was seen before
// — without executing anything: each query is optimized against the
// recycler and match-inserted, and every non-scan node that already existed
// is admitted with its estimated rows. Warming through the engine's own
// History admission would tie the pinned shapes to its admission economics
// (benefit ranking, copy cost, cache size) as well as to the optimizer.
func TestOptimizedShapesUnchanged(t *testing.T) {
	cat := harness.MixedCatalog(0.002, 4000, 1)
	var queries []workload.Query
	for _, s := range tpch.Streams(3, 7) {
		ps := append([]tpch.Params(nil), s.Queries...)
		sort.Slice(ps, func(i, j int) bool { return ps[i].Q < ps[j].Q })
		for _, p := range ps {
			queries = append(queries, workload.Query{Label: fmt.Sprintf("s%d-Q%d", s.ID, p.Q), Plan: tpch.Build(p)})
		}
	}
	for i, q := range skyserver.Workload(12, 42) {
		queries = append(queries, workload.Query{Label: fmt.Sprintf("sky-%d-%s", i, q.Pattern), Plan: q.Plan})
	}

	cfg := core.DefaultConfig()
	cfg.CacheBytes = 0
	rec := core.New(cfg)
	optimize := func(q workload.Query, r *core.Recycler) (*plan.Node, *opt.Context) {
		ctx := &opt.Context{Cat: cat, Rec: r}
		p, err := opt.Optimize(q.Plan.Clone(), ctx)
		if err != nil {
			t.Fatalf("%s: %v", q.Label, err)
		}
		return p, ctx
	}
	shapes := func(r *core.Recycler) []optShape {
		out := make([]optShape, len(queries))
		for i, q := range queries {
			p, _ := optimize(q, r)
			h := fnv.New64a()
			h.Write([]byte(opt.ShapeKey(p)))
			out[i] = optShape{Label: q.Label, Shape: fmt.Sprintf("%016x", h.Sum64())}
		}
		return out
	}
	got := map[string][]optShape{"cold": shapes(nil)}
	for _, q := range queries {
		written, err := opt.Normalize(q.Plan.Clone(), cat)
		if err != nil {
			t.Fatalf("%s: %v", q.Label, err)
		}
		optimized, ctx := optimize(q, rec)
		for _, p := range []*plan.Node{written, optimized} {
			est := opt.Annotate(p, ctx)
			res := rec.MatchInsert(p)
			p.WalkPost(func(n *plan.Node) {
				if nm := res.ByNode[n]; nm.Existed && n.Op != plan.Scan && n.Op != plan.TableFn {
					rows := est[n].Rows
					rec.Admit(nm.G, nil, rows, 8*rows, 0, -1)
				}
			})
		}
	}
	got["warm"] = shapes(rec)

	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(optShapesFile, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(optShapesFile)
	if err != nil {
		t.Fatalf("%v (record it with: go test -run TestOptimizedShapesUnchanged -update .)", err)
	}
	var want map[string][]optShape
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", optShapesFile, err)
	}
	for _, state := range []string{"cold", "warm"} {
		if len(want[state]) != len(got[state]) {
			t.Fatalf("%s: %d %s shapes recorded, %d queries", optShapesFile, len(want[state]), state, len(got[state]))
		}
		for i, g := range got[state] {
			if g != want[state][i] {
				t.Errorf("%s %s: optimized shape %s, recorded %s %s", state, g.Label, g.Shape, want[state][i].Label, want[state][i].Shape)
			}
		}
	}
}
