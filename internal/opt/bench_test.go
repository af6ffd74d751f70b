package opt

import (
	"math/rand"
	"testing"

	"recycledb/internal/catalog"
	"recycledb/internal/core"
	"recycledb/internal/plan"
	"recycledb/internal/tpch"
)

// BenchmarkOptimize plans TPC-H Q5 — a six-input join group under a
// filter, a projection and an aggregate — at sf 0.01, cold (no recycler)
// and against a recycler that holds the query's own optimized plan with
// every non-scan node cached. Each iteration optimizes a fresh clone of the
// written plan, the work a statement with fresh literals pays.
func BenchmarkOptimize(b *testing.B) {
	cat := catalog.New()
	tpch.Generate(cat, 0.01, 1)
	q := tpch.Build(tpch.NewParams(5, rand.New(rand.NewSource(1))))

	warm := core.New(core.DefaultConfig())
	p, err := Optimize(q.Clone(), &Context{Cat: cat, Rec: warm})
	if err != nil {
		b.Fatal(err)
	}
	res := warm.MatchInsert(p)
	p.WalkPost(func(n *plan.Node) {
		if n.Op != plan.Scan {
			warm.Admit(res.ByNode[n].G, nil, 100, 800, 0, -1)
		}
	})

	for _, bc := range []struct {
		name string
		rec  *core.Recycler
	}{{"cold", nil}, {"warm", warm}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := Optimize(q.Clone(), &Context{Cat: cat, Rec: bc.rec}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
