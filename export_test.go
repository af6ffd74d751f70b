package recycledb

import (
	"context"
	"strings"

	"recycledb/internal/catalog"
	"recycledb/internal/core"
	"recycledb/internal/exec"
)

// The one test seam: Config carries only what commands, examples and the
// benchmark set, so tests that need odd internal values (α = 1 for exact
// arithmetic, 256-row vectors to force many morsels, the subsumption/aging
// ablations) build their engine through the unexported constructor.

// Tuning is the engine's internal configuration.
type Tuning = tuning

// DefaultTuning returns the tuning New uses.
func DefaultTuning() Tuning { return defaultTuning() }

// NewTuned is NewWithCatalog with explicit internal tuning.
func NewTuned(cfg Config, t Tuning, cat *catalog.Catalog) *Engine {
	return newEngine(cfg, t, cat)
}

func (c *lru[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// each calls f on every cached value, most recently used first.
func (c *lru[V]) each(f func(V)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; el = el.Next() {
		f(el.Value.(*lruEntry[V]).val)
	}
}

// ForgetShapeRoots clears the root match of every optimized-shape entry, so
// the next execution of each shape takes the full rewrite path (which
// records the root again).
func ForgetShapeRoots(e *Engine) {
	e.optShapes.each(func(sh *optShape) { sh.root.Store(nil) })
}

// ShapeRoots returns the root matches the optimized-shape entries know, most
// recently used first; entries that know none are skipped.
func ShapeRoots(e *Engine) []*core.Node {
	var out []*core.Node
	e.optShapes.each(func(sh *optShape) {
		if g := sh.root.Load(); g != nil {
			out = append(out, g)
		}
	})
	return out
}

// Record returns the record of the statement r streams, which also holds
// the executor's engagement counts that QueryStats leaves out.
func Record(r *Rows) *exec.StmtRecord { return r.ectx.Record }

// ExplainText runs EXPLAIN q through the statement path and joins its
// QUERY PLAN rows, one line each.
func ExplainText(e *Engine, q string, args ...any) (string, error) {
	res, err := e.QueryCollect(context.Background(), "EXPLAIN "+q, args...)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, bt := range res.Batches {
		for _, line := range bt.Vecs[0].Str {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String(), nil
}
