//go:build race

package recycledb_test

// raceEnabled reports a -race build: its instrumentation allocates, so
// allocation contracts cannot hold.
const raceEnabled = true
