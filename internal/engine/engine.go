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
// counters, and the Observer hook receives its Observation struct on the
// stack. Alloc-guard tests (alloc_test.go) pin this property.
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
type Decision struct {
	// Allowed reports whether the call may proceed.
	Allowed bool
	// Cached reports whether the engine's tables served the decision
	// without running the filter (always false for filter-only).
	Cached bool
	// FilterInstructions is the number of BPF instructions executed when
	// the filter ran (zero on cache hits).
	FilterInstructions int
	// Action is the effective seccomp action.
	Action seccomp.Action
}

// LatencyClass coarsely classifies where a check's latency came from, so
// observers can histogram the fast/slow path split without re-deriving it.
type LatencyClass uint8

const (
	// ClassIDFast: SPT valid bit alone decided (ID-only syscall hit).
	ClassIDFast LatencyClass = iota
	// ClassVATHit: argument set found already validated (hash + probe).
	ClassVATHit
	// ClassFilter: the filter ran and the result was not cached (miss
	// without insert, or filter-only).
	ClassFilter
	// ClassInsert: the filter ran and a new VAT entry was recorded.
	ClassInsert
	// ClassDenied: the filter ran and rejected the call.
	ClassDenied
	// ClassSLBHit: a per-worker software SLB served the decision without
	// touching the shared tables (see WithSLB).
	ClassSLBHit
	// ClassBitmapHit: the whole filter chain resolved through per-syscall
	// constant-action bitmaps (Linux 5.11 style) — an SPT/VAT miss that
	// still executed zero BPF instructions. Only produced by engines built
	// with BPFExec "bitmap" (the default).
	ClassBitmapHit
	// ClassProgHit: the programmable policy was consulted and resolved
	// through its extracted constant-action table — zero program
	// instructions executed (the programmable analog of ClassBitmapHit).
	ClassProgHit
	// ClassProgMiss: the programmable policy actually executed its program
	// (a stateful/payload-dependent number, or extraction disabled).
	ClassProgMiss
	// ClassFastHit: the lock-free decision plane answered — the decision
	// was compiled to a constant at SetProfile time and served with no
	// locks, no table probes, and no filter execution (draco-concurrent
	// under bitmap BPF exec only).
	ClassFastHit

	// NumLatencyClasses sizes per-class counter arrays.
	NumLatencyClasses
)

func (c LatencyClass) String() string {
	switch c {
	case ClassIDFast:
		return "id-fast"
	case ClassVATHit:
		return "vat-hit"
	case ClassFilter:
		return "filter"
	case ClassInsert:
		return "insert"
	case ClassDenied:
		return "denied"
	case ClassSLBHit:
		return "slb-hit"
	case ClassBitmapHit:
		return "bitmap-hit"
	case ClassProgHit:
		return "prog-hit"
	case ClassProgMiss:
		return "prog-miss"
	case ClassFastHit:
		return "fast-hit"
	default:
		return "unknown"
	}
}

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
// and, for concurrent engines, safe for concurrent use. The default is
// NopObserver; engines must never require a non-nil observer.
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

// classify derives the latency class and cache-hit flag from a software
// checker outcome. Shared by every engine that wraps core.Checker.
func classify(out core.Outcome) (LatencyClass, bool) {
	switch {
	case out.FastHit:
		// The decision plane answered lock-free. A constant allow is the
		// SPT fast path served even closer to the caller (a cache hit); a
		// constant deny reports the filter-ran shape the locked path would
		// and is not a hit.
		return ClassFastHit, !out.FilterRan
	case !out.FilterRan && !out.ArgsChecked:
		return ClassIDFast, true
	case !out.FilterRan:
		return ClassVATHit, true
	case !out.Allowed:
		return ClassDenied, false
	case out.ProgRan && !out.ProgConstHit:
		// The programmable policy executed for real: the dominant cost on
		// this path, regardless of how the whitelist chain resolved.
		return ClassProgMiss, false
	case out.Inserted:
		return ClassInsert, false
	case out.ProgConstHit:
		// The program resolved through constant extraction — zero program
		// instructions; under bitmap BPF exec the whole check ran nothing.
		return ClassProgHit, false
	case out.BitmapHit:
		// Miss path, but the constant-action bitmap answered without
		// executing any BPF; not a table hit, so CacheHit stays false.
		return ClassBitmapHit, false
	default:
		return ClassFilter, false
	}
}

// decisionFrom converts a software checker outcome to the public Decision.
func decisionFrom(out core.Outcome) Decision {
	return Decision{
		Allowed:            out.Allowed,
		Cached:             !out.FilterRan,
		FilterInstructions: out.FilterExecuted,
		Action:             out.Action,
	}
}
