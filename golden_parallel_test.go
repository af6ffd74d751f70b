package recycledb_test

// Golden equivalence across parallelism degrees: every TPC-H and SkyServer
// query must produce the same canonical result at Parallelism 1, 4 and 8,
// in every recycling mode and against the monet-style baseline, cold and
// warm cache — and keep doing so while DML commits new epochs between
// rounds. The parallel executor's determinism contract is stronger than
// canonical equality (morsel-ordered merges reproduce serial batch order),
// but this is the end-to-end check that recycling decisions, cached
// results, snapshot validation, and delta extension are all
// parallelism-independent.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"recycledb"

	"recycledb/internal/catalog"
	"recycledb/internal/exec"
	"recycledb/internal/harness"
	"recycledb/internal/monet"
	"recycledb/internal/workload"
)

// newSmallVectorEngine builds an engine with 256-row vectors. Small vectors
// shrink the morsel size (16 x vector) so the mixed catalog's ~12k-row
// lineitem and 10k-row PhotoPrimary both clear the split-worthiness
// threshold and actually exercise the parallel paths.
func newSmallVectorEngine(cfg recycledb.Config, cat *catalog.Catalog) *recycledb.Engine {
	tun := recycledb.DefaultTuning()
	tun.VectorSize = 256
	return recycledb.NewTuned(cfg, tun, cat)
}

func TestGoldenEquivalenceAcrossParallelism(t *testing.T) {
	cat := harness.MixedCatalog(0.002, 10000, 1)
	queries := goldenQueries()

	type pareng struct {
		label string
		eng   *recycledb.Engine
		// decisions logs what the recycler did for each execution, in
		// order, so diverging engines can be diffed statement by statement.
		decisions []string
	}
	var engines []*pareng
	for _, mode := range harness.Modes {
		for _, par := range []int{1, 4, 8} {
			engines = append(engines, &pareng{
				label: fmt.Sprintf("%v/par=%d", mode, par),
				eng:   newSmallVectorEngine(recycledb.Config{Mode: mode, Parallelism: par}, cat),
			})
		}
	}
	meng := monet.New(cat, monet.NewRecycler(0))

	fragsBefore := exec.ParallelFragmentsBuilt()
	fusedBefore := exec.FusedFragmentsBuilt()
	predBefore := exec.PredKernelsCompiled()
	hashBefore := exec.FastHashEngaged()
	rng := rand.New(rand.NewSource(123))
	rounds := []struct {
		name string
		ops  []workload.WriteFunc
	}{
		{"initial", nil},
		{"appends", []workload.WriteFunc{
			harness.SyntheticAppender(cat, "lineitem", 50),
			harness.SyntheticAppender(cat, "orders", 20),
		}},
		{"deletes+appends", []workload.WriteFunc{
			harness.SyntheticDeleter(cat, "lineitem", 40),
			harness.SyntheticAppender(cat, "PhotoPrimary", 30),
		}},
	}
	for _, round := range rounds {
		for _, op := range round.ops {
			if err := op(0, rng); err != nil {
				t.Fatalf("%s: write: %v", round.name, err)
			}
		}
		// Ground truth for this epoch: the recorded digests.
		want := goldenSection(t, "parallelism/"+round.name, cat, queries)
		// Cold-ish then warm pass per engine: the second pass replays
		// whatever the first admitted (including parallel-produced cache
		// entries) and must still match.
		for _, pe := range engines {
			for pass := 0; pass < 2; pass++ {
				for i, q := range queries {
					r, err := pe.eng.ExecuteContext(context.Background(), q.Plan)
					if err != nil {
						t.Fatalf("%s: %s pass %d %s: %v", round.name, pe.label, pass, q.Label, err)
					}
					if d := want[i].diff(canonResult(r)); d != "" {
						t.Fatalf("%s: %s pass %d %s: %s", round.name, pe.label, pass, q.Label, d)
					}
					st := r.Stats
					pe.decisions = append(pe.decisions, fmt.Sprintf(
						"%s pass %d %s: stores=%d spec=%d admitted=%d reused=%d subsumed=%d waits=%d",
						round.name, pass, q.Label, st.Stores, st.SpecStores, st.Materialized,
						st.Reused, st.SubsumptionReused, st.Waits))
				}
			}
		}
		for i, q := range queries {
			r, err := meng.Execute(q.Plan)
			if err != nil {
				t.Fatalf("%s: monet %s: %v", round.name, q.Label, err)
			}
			if d := want[i].diff(canonBatches(r.Schema, r.Batches)); d != "" {
				t.Fatalf("%s: monet %s: %s", round.name, q.Label, d)
			}
		}
	}

	// Sanity: the matrix really exercised parallel fragments — an engine
	// whose plans all fell back to serial would make this test vacuous.
	if got := exec.ParallelFragmentsBuilt() - fragsBefore; got == 0 {
		t.Fatal("no parallel fragments were built; the equivalence matrix ran fully serial")
	}
	if got := exec.FusedFragmentsBuilt() - fusedBefore; got == 0 {
		t.Fatal("no fused fragments were built")
	}
	// ... and the specialized paths under them: a matrix where every
	// conjunct and key set fell back to the generic evaluator
	// would be green without testing the kernels at all.
	if got := exec.PredKernelsCompiled() - predBefore; got == 0 {
		t.Fatal("no predicate kernels compiled; the equivalence matrix ran fully generic")
	}
	if got := exec.FastHashEngaged() - hashBefore; got == 0 {
		t.Fatal("the int64 hash fast path never engaged")
	}
	// Recycling decisions must also be parallelism-independent: compare
	// each mode's recycler stats between its serial and 8-way engines.
	for _, mode := range harness.Modes[1:] { // skip Off: no recycler work
		var serial, par8 *pareng
		for _, pe := range engines {
			if pe.label == fmt.Sprintf("%v/par=1", mode) {
				serial = pe
			}
			if pe.label == fmt.Sprintf("%v/par=8", mode) {
				par8 = pe
			}
		}
		ss, ps := serial.eng.Recycler().Stats(), par8.eng.Recycler().Stats()
		if ss.Queries != ps.Queries {
			t.Fatalf("mode %v: query counts diverged: %d vs %d", mode, ss.Queries, ps.Queries)
		}
		t.Logf("mode %v: reuses serial %d par8 %d", mode, ss.Reuses, ps.Reuses)
		// Reuse behaviour is parallelism-independent only up to timing. A
		// history store needs hR x the node's *measured* cost to beat the
		// modelled copy cost, and the top maxHistoryStores candidates are
		// ranked by measured-cost benefit (Eq. 1); eight workers sharing a
		// small machine measure different costs than one, so par8 stores —
		// and later reuses — a few different results (the decision log
		// below shows which). That clock input is what ROADMAP 3(a)
		// replaces with work units. Until then the tolerance comes from 24
		// recorded runs: HIST serial 133-144 vs par8 140-150, SPEC and PA
		// at most 9 apart; the widest gap, 17, is 13% of the serial count,
		// so a 20% gap is a divergence timing does not explain.
		tol := max(ss.Reuses/5, 8)
		diff := ss.Reuses - ps.Reuses
		if diff < 0 {
			diff = -diff
		}
		if diff > tol {
			t.Errorf("mode %v: exact reuses diverged beyond tolerance: serial %d vs par8 %d",
				mode, ss.Reuses, ps.Reuses)
			for i := range serial.decisions {
				if serial.decisions[i] != par8.decisions[i] {
					t.Logf("serial %s\n    par8   %s", serial.decisions[i], par8.decisions[i])
				}
			}
		}
	}
}
