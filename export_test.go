package recycledb

import "recycledb/internal/catalog"

// The one test seam: Config carries only what commands, examples and the
// benchmark set, so tests that need odd internal values (α = 1 for exact
// arithmetic, a huge CopyBytesPerSec so tiny fixtures store, 256-row
// vectors to force many morsels, the subsumption/aging ablations) build
// their engine through the unexported constructor.

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
