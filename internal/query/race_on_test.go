//go:build race

package query_test

// raceEnabled reports that the test binary runs under the race detector.
const raceEnabled = true
