//go:build !race

package core

// raceEnabled reports whether the race detector is compiled in; its runtime
// changes malloc counts, so the allocation-budget tests skip themselves.
const raceEnabled = false
