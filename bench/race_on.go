//go:build race

package main

// raceBuild reports that the race detector is compiled in. Its runtime
// allocates on its own schedule, so malloc counts stop repeating.
const raceBuild = true
