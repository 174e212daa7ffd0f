//go:build race

package draco

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
