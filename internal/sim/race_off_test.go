//go:build !race

package sim

// raceEnabled reports whether the race detector is compiled in; its runtime
// changes allocation sizes and counts, so the allocation checks skip
// themselves.
const raceEnabled = false
