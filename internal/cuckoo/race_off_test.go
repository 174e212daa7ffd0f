//go:build !race

package cuckoo

// raceEnabled reports whether the race detector instruments this build;
// the seqlock hammer does fewer writes under it.
const raceEnabled = false
