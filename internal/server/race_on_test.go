//go:build race

package server

// raceEnabled reports that the test binary runs under the race detector.
const raceEnabled = true
