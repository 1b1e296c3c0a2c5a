//go:build !race

package seg

// raceEnabled reports whether the race detector is compiled in; its runtime
// changes malloc counts, so the allocation checks skip themselves.
const raceEnabled = false
