//go:build race

package core

// raceEnabled reports whether the race detector is on. It makes
// sync.Pool drop items at random, so allocation counts are meaningless.
const raceEnabled = true
