//go:build race

package engine

// raceEnabled reports that the test binary runs under the race detector.
const raceEnabled = true
