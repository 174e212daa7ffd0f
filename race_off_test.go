//go:build !race

package draco

// raceEnabled reports whether the race detector instruments this build.
// The alloc-guard tests skip under -race: instrumentation perturbs
// allocation behaviour and the guarded property is a production-build one.
const raceEnabled = false
