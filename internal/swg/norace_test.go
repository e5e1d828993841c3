//go:build !race

package swg

const raceEnabled = false
