// Package core implements Draco's primary contribution (paper §V): the
// System Call Permissions Table (SPT) and the Validated Argument Table
// (VAT), plus the software checker that consults them before falling back
// to the Seccomp filter. The same structures back the hardware
// implementation in internal/hwdraco; the VAT is software-resident in both
// (paper Figure 10).
package core

import (
	"math/bits"
	"sync/atomic"

	"draco/internal/cuckoo"
	"draco/internal/syscalls"
)

// SPTEntry is one System Call Permissions Table entry (paper Figure 5):
// a Valid bit, the virtual address of the syscall's VAT section, and the
// 48-bit Argument Bitmask naming the argument bytes subject to checking.
type SPTEntry struct {
	Valid bool
	// NArgs caches ArgCount(ArgBitmask), computed once when the entry is
	// installed so per-check paths never re-popcount the bitmask.
	NArgs uint8
	// accessed is the Accessed bit (paper §VII-B): set on every hit,
	// cleared periodically; only entries with the bit set are saved across
	// a context switch. It is mutated on the READ path — the only entry
	// field that is — so once lookups go lock-free it must be accessed
	// through the atomic MarkAccessed/Accessed/clearAccessed helpers. A
	// plain uint32 (not atomic.Uint32) keeps SPTEntry copyable by value.
	accessed uint32
	// Base is the virtual address of this syscall's VAT hash table.
	Base uint64
	// table is what Base points at: the syscall's VAT section, so a hit
	// goes from the SPT index straight to the table. Nil for an ID-only
	// entry.
	table *cuckoo.Table
	// ArgBitmask selects the checked argument bytes; zero means the call
	// is checked by ID only.
	ArgBitmask uint64
}

// ChecksArgs reports whether the entry requires argument validation.
func (e *SPTEntry) ChecksArgs() bool { return e.ArgBitmask != 0 }

// MarkAccessed sets the Accessed bit. Safe to call concurrently with other
// readers and with the periodic ClearAccessed sweep. The bit is almost
// always set already, so it is loaded first and stored only when clear: a
// hit then costs a read of a line it reads anyway, not an exchange.
func (e *SPTEntry) MarkAccessed() {
	if atomic.LoadUint32(&e.accessed) == 0 {
		atomic.StoreUint32(&e.accessed, 1)
	}
}

// Accessed reports the Accessed bit.
func (e *SPTEntry) Accessed() bool { return atomic.LoadUint32(&e.accessed) == 1 }

func (e *SPTEntry) clearAccessed() { atomic.StoreUint32(&e.accessed, 0) }

// ArgCount returns the number of arguments covered by the bitmask, which
// indexes the SLB subtables in the hardware implementation (Figure 6).
// Installed entries carry the precomputed result in NArgs; this derives it
// from scratch for ad-hoc entry values.
func (e SPTEntry) ArgCount() int { return CountArgs(e.ArgBitmask) }

// CountArgs counts the argument lanes with at least one checked byte in an
// SPT Argument Bitmask (8 bits per argument, one per byte). Branch-free:
// each lane is collapsed to its low bit, then a single popcount counts the
// lanes.
func CountArgs(mask uint64) int {
	m := mask | mask>>4
	m |= m >> 2
	m |= m >> 1
	return bits.OnesCount64(m & argLaneLow)
}

// argLaneLow has the low bit of each of the syscalls.MaxArgs lanes set.
const argLaneLow = 0x0101010101010101 & (1<<(syscalls.MaxArgs*syscalls.ArgBytes) - 1)

// SPT is a per-process System Call Permissions Table, indexed by system
// call ID. The software implementation stores entries in a dense slice so
// a lookup is one bounds check and one index — no hashing, no pointer
// chase — sized to the highest installed syscall number; the hardware
// implementation in internal/hwdraco models the fixed-size per-core table.
type SPT struct {
	entries []SPTEntry
	valid   int
}

// NewSPT creates an empty table.
func NewSPT() *SPT {
	return &SPT{}
}

// Lookup returns the entry for a syscall ID, or nil when the ID is out of
// range or its slot was never installed.
func (t *SPT) Lookup(sid int) *SPTEntry {
	if uint(sid) >= uint(len(t.entries)) {
		return nil
	}
	e := &t.entries[sid]
	if !e.Valid {
		return nil
	}
	return e
}

// Set installs or replaces an entry, growing the table to cover sid and
// precomputing NArgs. Pointers returned by earlier Lookups may be
// invalidated by growth; re-Lookup after Set.
func (t *SPT) Set(sid int, e SPTEntry) {
	if sid < 0 {
		return
	}
	if sid >= len(t.entries) {
		grown := make([]SPTEntry, sid+1)
		copy(grown, t.entries)
		t.entries = grown
	}
	e.NArgs = uint8(CountArgs(e.ArgBitmask))
	if t.entries[sid].Valid {
		t.valid--
	}
	if e.Valid {
		t.valid++
	}
	t.entries[sid] = e
}

// Invalidate clears the whole table.
func (t *SPT) Invalidate() {
	t.entries = nil
	t.valid = 0
}

// Len returns the number of valid entries.
func (t *SPT) Len() int { return t.valid }

// ClearAccessed clears every Accessed bit; the hardware does this
// periodically (every ~500us, paper §VII-B).
func (t *SPT) ClearAccessed() {
	for i := range t.entries {
		t.entries[i].clearAccessed()
	}
}

// AccessedEntries returns the (sid, entry) pairs whose Accessed bit is set:
// the working set worth saving across a context switch.
func (t *SPT) AccessedEntries() map[int]SPTEntry {
	out := make(map[int]SPTEntry)
	for sid := range t.entries {
		e := &t.entries[sid]
		if e.Valid && e.Accessed() {
			// Field-by-field copy: a whole-struct copy would read the
			// accessed word non-atomically, racing concurrent MarkAccessed.
			out[sid] = SPTEntry{Valid: true, NArgs: e.NArgs, accessed: 1,
				Base: e.Base, table: e.table, ArgBitmask: e.ArgBitmask}
		}
	}
	return out
}
