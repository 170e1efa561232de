//go:build race

package scan_test

// raceEnabled reports whether the tests run under the race detector,
// which makes sync.Pool drop a random share of Puts on purpose.
const raceEnabled = true
