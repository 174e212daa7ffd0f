//go:build race

package cuckoo

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
