//go:build !race

package core

// raceEnabled reports that this binary was built with the race detector.
const raceEnabled = false
