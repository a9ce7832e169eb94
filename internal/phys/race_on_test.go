//go:build race

package phys

// raceEnabled reports whether the race detector is active; allocation
// guards relax their assertions under -race because instrumentation
// changes allocation counts.
const raceEnabled = true
