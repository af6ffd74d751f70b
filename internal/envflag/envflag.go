// Package envflag centralizes the engine's boolean environment knob so
// every front end (shell, server, bench) parses it identically. The knob
// mirrors a Config escape hatch and exists for bisecting regressions
// without rebuilding: results are identical with or without it. The
// README's "Environment knobs" table documents it.
package envflag

import (
	"os"
	"strings"
)

// DisableOptimizer turns off the recycler-aware plan optimizer
// (Config.DisableOptimizer). Command-line flags take the environment value
// as their default, so `-disable-optimizer=false` overrides an exported knob.
const DisableOptimizer = "RECYCLEDB_DISABLE_OPTIMIZER"

// Bool reads a boolean environment override: "1", "true", "yes" — any
// non-empty value except "0"/"false"/"no" — enables the knob.
func Bool(name string) bool {
	switch strings.ToLower(os.Getenv(name)) {
	case "", "0", "false", "no":
		return false
	}
	return true
}
