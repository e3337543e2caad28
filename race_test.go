//go:build race

package kcore

// raceEnabled reports a -race build, whose instrumentation allocates on
// its own and makes allocation counts unreliable.
const raceEnabled = true
