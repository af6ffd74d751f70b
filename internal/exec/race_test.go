//go:build race

package exec

// raceEnabled reports a -race build: sync.Pool drops a random quarter of
// its Puts there, so pool-reuse assertions cannot hold.
const raceEnabled = true
