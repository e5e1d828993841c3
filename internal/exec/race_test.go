//go:build race

package exec

// raceEnabled reports that the race detector is on: its instrumentation
// allocates, so allocation-count assertions are skipped.
const raceEnabled = true
