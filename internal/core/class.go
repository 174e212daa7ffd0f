package core

import "draco/internal/seccomp"

// LatencyClass coarsely classifies where a check's latency came from: which
// tier answered. The checker tallies it per check in Stats.Classes, under
// whatever lock already guards its counters; observers receive the same
// value per call.
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
	// ClassSLBHit: no engine produces it; the slot keeps the class
	// numbering and the "slb-hit" name that benchmark reports enumerate.
	ClassSLBHit
	// ClassBitmapHit: the whole filter chain resolved through per-syscall
	// constant-action bitmaps (Linux 5.11 style) — an SPT/VAT miss that
	// still executed zero BPF instructions. Only produced by checkers whose
	// filters run seccomp.ExecBitmap (every registry engine and dracod).
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

// Class derives the latency class of a check from its outcome. A check is
// a cache hit (served by the tables or the plane without the filter)
// exactly when !FilterRan.
func (out *Outcome) Class() LatencyClass {
	switch {
	case out.FastHit:
		// The decision plane answered lock-free, whether the constant is an
		// allow (the SPT fast path served closer to the caller) or a deny
		// (which reports the filter-ran shape the locked path would).
		return ClassFastHit
	case !out.FilterRan && !out.ArgsChecked:
		return ClassIDFast
	case !out.FilterRan:
		return ClassVATHit
	case !out.Allowed:
		return ClassDenied
	case out.ProgRan && !out.ProgConstHit:
		// The programmable policy executed for real: the dominant cost on
		// this path, regardless of how the whitelist chain resolved.
		return ClassProgMiss
	case out.Inserted:
		return ClassInsert
	case out.ProgConstHit:
		// The program resolved through constant extraction — zero program
		// instructions; under bitmap BPF exec the whole check ran nothing.
		return ClassProgHit
	case out.BitmapHit:
		// Miss path, but the constant-action bitmap answered without
		// executing any BPF.
		return ClassBitmapHit
	default:
		return ClassFilter
	}
}

// Decision reports one checked system call to a caller: the four fields of
// an Outcome the serving layers answer with. It is a small value type: the
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

// Decision projects the outcome onto what a caller is told.
func (out *Outcome) Decision() Decision {
	return Decision{
		Allowed:            out.Allowed,
		Cached:             !out.FilterRan,
		FilterInstructions: out.FilterExecuted,
		Action:             out.Action,
	}
}
