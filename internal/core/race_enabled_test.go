//go:build race

package core

// raceEnabled reports that this binary was built with the race detector,
// which slows wall-clock-bounded tests by an order of magnitude.
const raceEnabled = true
