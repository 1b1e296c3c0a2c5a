//go:build race

package seg

const raceEnabled = true
