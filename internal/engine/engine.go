// Package engine unifies every syscall-checking mechanism in the repo
// behind a single zero-allocation Engine interface.
//
// The paper's central observation (§V-§VI) is that the caching structure —
// SPT + VAT — stays fixed while the checking mechanism varies: a plain
// Seccomp filter, the software Draco made safe for concurrent callers, or
// the SLB/STB hardware model. Mirroring that, this package defines one
// contract every mechanism implements:
//
//	Check(sid, args) Decision   // the hot path: by-value in, by-value out
//	CheckBatch(calls, dst)      // amortized batch checking
//	SetProfile(p)               // policy replacement
//	Stats()                     // aggregate counters
//	Close()                     // release resources
//
// plus a name-keyed registry (see registry.go) so that the benchmarks and
// the tests select mechanisms by name instead of hand-wiring each one:
// adding a mechanism is one Register call, not an N-site edit. The dracod
// service and the public draco.Checker do not select: they hold the
// concurrent checker directly.
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

// Engine is the unified checking contract. Check and CheckBatch are the hot
// paths. Only draco-concurrent is safe for concurrent use; the other
// mechanisms serve one caller at a time (Lookup(name).Concurrent says
// which).
type Engine interface {
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
	// Close releases resources. The engine must not be used afterwards.
	Close() error
}
