// Package cuckoo implements the 2-ary cuckoo hash table that backs each
// system call's section of the Draco Validated Argument Table (paper §V-B,
// §VII-A).
//
// Each table is probed with two hash functions (H1, H2); a lookup reads the
// two candidate slots in parallel and compares the stored argument sets. On
// insertion, the cuckoo relocation algorithm is used to find a spot; if
// relocation fails after a bounded number of attempts, the OS "makes room by
// evicting one entry" (paper §VII-A).
package cuckoo

import (
	"draco/internal/hashes"
	"draco/internal/syscalls"
)

// RelocationLimit bounds the cuckoo displacement chain before the table
// gives up and evicts an entry outright.
const RelocationLimit = 16

// OverProvision is the paper's sizing rule: each table is sized to twice the
// number of estimated argument sets "to minimize insertion failures" (§VII-A).
const OverProvision = 2

// Entry is one validated argument set plus the hash value that located it.
type Entry struct {
	Args  hashes.Args
	Hash  uint64 // the one of H1/H2 under which the entry is stored
	Valid bool
}

// Table is a 2-ary cuckoo hash table of validated argument sets.
type Table struct {
	slots []Entry
	used  int
	// evictions counts entries displaced permanently because a relocation
	// chain exceeded RelocationLimit.
	evictions uint64
	// bitmask is the SPT argument bitmask used to hash entries; all
	// entries of one table belong to one system call and share it.
	bitmask uint64
	// wmask is bitmask expanded once, at construction, to the per-argument
	// word masks every probe compares under.
	wmask WordMask
}

// WordMask is an SPT Argument Bitmask (one bit per argument byte) expanded
// to one 64-bit mask per argument, so a masked compare is an XOR and an AND
// per lane instead of a walk over the bits.
type WordMask [syscalls.MaxArgs]uint64

// ExpandMask expands a bitmask into its WordMask: bit k of the bitmask
// selects byte k%8 of argument k/8.
func ExpandMask(bitmask uint64) WordMask {
	var m WordMask
	for i := range m {
		// Put bit b of the lane's byte in byte b, then widen each non-zero
		// byte to 0xff.
		lane := (bitmask >> uint(i*syscalls.ArgBytes)) & 0xff
		bits := lane * 0x0101010101010101 & 0x8040201008040201
		m[i] = ((bits + 0x7f7f7f7f7f7f7f7f) >> 7 & 0x0101010101010101) * 0xff
	}
	return m
}

// EqualMasked reports whether a and b agree on every byte m selects.
func EqualMasked(a, b *hashes.Args, m *WordMask) bool {
	var diff uint64
	for i, w := range m {
		diff |= (a[i] ^ b[i]) & w
	}
	return diff == 0
}

// New creates a table able to hold estimatedSets argument sets, sized with
// the paper's 2x over-provisioning rule. Capacity is rounded up to a power
// of two (minimum 2 slots) so slot indexing is a mask.
func New(estimatedSets int, bitmask uint64) *Table {
	return NewWithProvision(estimatedSets, OverProvision, bitmask)
}

// NewWithProvision creates a table with an explicit over-provisioning
// factor (the §VII-A sizing-rule ablation; 1 = exact sizing).
func NewWithProvision(estimatedSets, provision int, bitmask uint64) *Table {
	if provision < 1 {
		provision = 1
	}
	want := estimatedSets * provision
	capacity := 2
	for capacity < want {
		capacity *= 2
	}
	return &Table{slots: make([]Entry, capacity), bitmask: bitmask, wmask: ExpandMask(bitmask)}
}

// Bitmask returns the argument bitmask the table hashes under.
func (t *Table) Bitmask() uint64 { return t.bitmask }

// Len returns the number of valid entries.
func (t *Table) Len() int { return t.used }

// Cap returns the number of slots.
func (t *Table) Cap() int { return len(t.slots) }

// Evictions returns how many entries were permanently displaced by failed
// relocation chains.
func (t *Table) Evictions() uint64 { return t.evictions }

// SizeBytes returns the memory footprint of the table: each slot stores six
// 8-byte arguments plus the 8-byte hash (the valid bit rides in slot
// metadata). This feeds the §XI-C VAT memory-consumption experiment.
func (t *Table) SizeBytes() int {
	const slotBytes = 6*8 + 8
	return len(t.slots) * slotBytes
}

func (t *Table) index(h uint64) int {
	return int(h & uint64(len(t.slots)-1))
}

// holds reports whether the slot h indexes stores an argument set equal to
// args under the table's mask. Slots are probed in place: an Entry is 64
// bytes, and a probe only needs to read it.
func (t *Table) holds(h uint64, args *hashes.Args) bool {
	e := &t.slots[t.index(h)]
	return e.Valid && EqualMasked(&e.Args, args, &t.wmask)
}

// Lookup probes both ways for an argument set equal to args (compared under
// the table's bitmask) and reports whether it was found, and under which
// hash function (1 or 2; 0 when absent). Both probe indices are returned so
// timing models can charge the two parallel memory accesses.
func (t *Table) Lookup(args hashes.Args) (found bool, way int, pair hashes.Pair) {
	pair = hashes.ArgSet(args, t.bitmask)
	if t.holds(pair.H1, &args) {
		return true, 1, pair
	}
	if t.holds(pair.H2, &args) {
		return true, 2, pair
	}
	return false, 0, pair
}

// LookupHash probes for an entry stored under the exact hash value h. This
// is the access the hardware SLB preloader performs: the STB supplies a hash
// value, not an argument set (paper §VI-B).
func (t *Table) LookupHash(h uint64) (Entry, bool) {
	e := t.slots[t.index(h)]
	if e.Valid && e.Hash == h {
		return e, true
	}
	return Entry{}, false
}

// Put adds args as a validated set and returns the hash value under which
// it is stored. Putting an already-present set is a no-op returning the
// existing way's hash. resident is false when the relocation chain ran out
// and the entry it dropped was the new one: nothing is stored for args then,
// and hash is zero.
func (t *Table) Put(args hashes.Args) (hash uint64, resident bool) {
	pair := hashes.ArgSet(args, t.bitmask)
	if h, ok := t.storedHash(&args, pair); ok {
		return h, true
	}
	e := Entry{Args: args, Hash: pair.H1, Valid: true}
	// Try H1's slot, then displace along the cuckoo chain.
	for n := 0; n < RelocationLimit; n++ {
		slot := &t.slots[t.index(e.Hash)]
		victim := *slot
		*slot = e
		if !victim.Valid {
			t.used++
			return t.storedHash(&args, pair)
		}
		// Relocate the victim to its alternate slot.
		e = victim
		e.Hash = t.alternate(&victim)
	}
	// Relocation chain too long: evict the current displaced entry
	// permanently (paper §VII-A: "the OS makes room by evicting one entry").
	t.evictions++
	return t.storedHash(&args, pair)
}

// Insert is Put without the residency report: the zero hash stands for a
// set that was not kept.
func (t *Table) Insert(args hashes.Args) uint64 {
	h, _ := t.Put(args)
	return h
}

// storedHash returns the hash under which args currently resides, if it does.
func (t *Table) storedHash(args *hashes.Args, pair hashes.Pair) (uint64, bool) {
	if t.holds(pair.H1, args) {
		return pair.H1, true
	}
	if t.holds(pair.H2, args) {
		return pair.H2, true
	}
	return 0, false
}

// alternate returns the other hash value of an entry's argument set.
func (t *Table) alternate(e *Entry) uint64 {
	pair := hashes.ArgSet(e.Args, t.bitmask)
	if e.Hash == pair.H1 {
		return pair.H2
	}
	return pair.H1
}

// Remove deletes an argument set if present, returning whether it was found.
func (t *Table) Remove(args hashes.Args) bool {
	pair := hashes.ArgSet(args, t.bitmask)
	h, ok := t.storedHash(&args, pair)
	if ok {
		t.slots[t.index(h)] = Entry{}
		t.used--
	}
	return ok
}

// Clear removes all entries.
func (t *Table) Clear() {
	for i := range t.slots {
		t.slots[i] = Entry{}
	}
	t.used = 0
}

// Entries returns a copy of all valid entries (test/diagnostic helper).
func (t *Table) Entries() []Entry {
	out := make([]Entry, 0, t.used)
	for _, e := range t.slots {
		if e.Valid {
			out = append(out, e)
		}
	}
	return out
}
