// Package engine unifies every syscall-checking mechanism in the repo
// behind a single zero-allocation Engine interface.
//
// The paper's central observation (§V-§VI) is that the caching structure —
// SPT + VAT — stays fixed while the checking mechanism varies: a plain
// Seccomp filter, the kernel-only software Draco, a sharded concurrent
// variant, or the SLB/STB hardware model. Mirroring that, this package
// defines one contract every mechanism implements:
//
//	Check(sid, args) Decision   // the hot path: by-value in, by-value out
//	CheckBatch(calls, dst)      // amortized batch checking
//	SetProfile(p)               // policy replacement
//	Stats() / Describe()        // aggregate counters and identity
//	Close()                     // release resources, flush observers
//
// plus a name-keyed registry (see registry.go) so that the public API,
// dracod's HTTP surface, the simulator, and the benchmarks all select
// mechanisms by name instead of hand-wiring each one: adding a mechanism is
// one Register call, not an N-site edit.
//
// The single-call hot path is allocation-free end to end for the software
// engines: Args and Decision travel by value, statistics are pre-sized
// counters, and the Observer hook (when one is attached) receives its
// Observation struct on the stack. Alloc-guard tests (alloc_test.go) pin
// this property.
package engine

import (
	"draco/internal/concurrent"
	"draco/internal/core"
	"draco/internal/hashes"
	"draco/internal/seccomp"
)

// Args is a system call argument vector (up to six 64-bit values), by value.
type Args = hashes.Args

// Call names one system call invocation in a batch. It is the concurrent
// checker's own type, so batches reach it without translation.
type Call = concurrent.Call

// stackBatch bounds the batches whose per-call scratch lives on the stack
// (the common service batch sizes); larger ones allocate.
const stackBatch = 128

// Stats aggregates engine behaviour over a run; it is the software
// checker's counter set, shared by every engine so callers can compare
// mechanisms apples-to-apples.
type Stats = core.Stats

// Decision reports one checked system call. It is a small value type: the
// hot path constructs and returns it on the stack.
type Decision = core.Decision

// LatencyClass coarsely classifies where a check's latency came from. The
// enum lives in core, where the tier that answered is known and tallied
// (Stats.Classes); the names here are what observers and callers use.
type LatencyClass = core.LatencyClass

// The latency classes; see core for what each one means.
const (
	ClassIDFast       = core.ClassIDFast
	ClassVATHit       = core.ClassVATHit
	ClassFilter       = core.ClassFilter
	ClassInsert       = core.ClassInsert
	ClassDenied       = core.ClassDenied
	ClassSLBHit       = core.ClassSLBHit
	ClassBitmapHit    = core.ClassBitmapHit
	ClassProgHit      = core.ClassProgHit
	ClassProgMiss     = core.ClassProgMiss
	ClassFastHit      = core.ClassFastHit
	NumLatencyClasses = core.NumLatencyClasses
)

// Observation carries one check's outcome to an Observer. It is delivered
// by value: constructing and passing it costs no heap allocation.
type Observation struct {
	// SID is the checked system call number.
	SID int
	// Decision is what the caller was told.
	Decision Decision
	// CacheHit reports whether the engine's tables (SPT/VAT or SLB/STB)
	// served the decision.
	CacheHit bool
	// Class is the latency class of the check.
	Class LatencyClass
	// CheckCycles is the modeled checking latency in 2 GHz core cycles.
	// Only latency-annotated engines (draco-hw) fill it; zero elsewhere.
	CheckCycles uint64
}

// Observer receives one callback per check. Implementations must be cheap
// and, for concurrent engines, safe for concurrent use. An engine built
// without one neither classifies nor makes a call per check: the same
// counts are tallied in Stats where the answering tier already holds a lock.
type Observer interface {
	Observe(Observation)
}

// Desc identifies an engine instance: which mechanism, what policy, and the
// mechanism-specific shape parameters. The serving layer reports it in
// stats responses.
type Desc struct {
	// Engine is the registry name the instance was built under.
	Engine string
	// Profile is the active policy's name.
	Profile string
	// Generation counts policy replacements, starting at 1.
	Generation uint64
	// Shards is the VAT shard fan-out (1 for unsharded engines).
	Shards int
	// Routing is the shard-routing key name ("" for unsharded engines).
	Routing string
}

// Engine is the unified checking contract. Check and CheckBatch are the hot
// paths; whether they are safe for concurrent use is a per-mechanism
// property reported by the registry (Info.Concurrent) — wrap non-concurrent
// engines with Synchronized for shared use.
type Engine interface {
	// Name returns the registry name the engine was built under.
	Name() string
	// Check validates one system call invocation.
	Check(sid int, args Args) Decision
	// CheckBatch validates a batch in call order, reusing dst when it has
	// capacity. Mechanisms with native batching amortize locking here.
	CheckBatch(calls []Call, dst []Decision) []Decision
	// Stats returns cumulative counters since construction.
	Stats() Stats
	// SetProfile replaces the policy; cached validations are discarded.
	SetProfile(p *seccomp.Profile) error
	// VATBytes returns the current Validated Argument Table footprint.
	VATBytes() int
	// Describe reports the instance's identity.
	Describe() Desc
	// Close releases resources and flushes the observer. The engine must
	// not be used afterwards.
	Close() error
}
