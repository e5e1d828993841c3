//go:build race

package swg

// raceEnabled reports that the race detector is on: its instrumentation
// allocates, so allocation-count assertions are skipped.
const raceEnabled = true
