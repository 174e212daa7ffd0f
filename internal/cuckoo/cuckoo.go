// Package cuckoo implements the 2-ary cuckoo hash table that backs each
// system call's section of the Draco Validated Argument Table (paper §V-B,
// §VII-A).
//
// Each table is probed with two hash functions (H1, H2); a lookup reads the
// two candidate slots in parallel and compares the stored argument sets. On
// insertion, the cuckoo relocation algorithm is used to find a spot; if
// relocation fails after a bounded number of attempts, the OS "makes room by
// evicting one entry" (paper §VII-A).
//
// Writers (Put, Remove, Clear) must be serialized by the caller, but a
// reader need not be: SharedLookup and SharedContains may run while a
// writer mutates the table. The table carries a sequence counter that every
// mutation makes odd before its first slot store and even after its last,
// and the slot words a probe compares — the valid word and the argument
// words the bitmask selects — are stored and loaded atomically (plain
// loads on amd64).
// A shared probe reads the counter, bails out if it is odd, probes, and
// answers a hit only if the counter still reads the same: the slot it
// matched was then read whole, between two mutations. A shared miss proves
// nothing — the caller retries under the writers' lock.
package cuckoo

import (
	"sync/atomic"

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

// slot is one table entry in words, so that shared probes can load the
// words they compare atomically while a writer stores them: the argument
// set, the hash that placed it, and the valid flag (0 or 1). 64 bytes, one
// cache line.
type slot struct {
	args  hashes.Args
	hash  uint64
	valid uint64
}

// entry converts a slot the caller may read plainly (it holds the writers'
// lock) to its exported form.
func (s *slot) entry() Entry {
	return Entry{Args: s.args, Hash: s.hash, Valid: s.valid != 0}
}

// Table is a 2-ary cuckoo hash table of validated argument sets.
type Table struct {
	slots []slot
	// seq is the mutation sequence counter: odd while a writer is storing
	// slots, bumped to even when it is done (see the package comment).
	seq  atomic.Uint64
	used int
	// evictions counts entries displaced permanently because a relocation
	// chain exceeded RelocationLimit.
	evictions uint64
	// bitmask is the SPT argument bitmask used to hash entries; all
	// entries of one table belong to one system call and share it.
	bitmask uint64
	// wmask is bitmask expanded once, at construction, to the per-argument
	// word masks every probe compares under.
	wmask WordMask
	// lanes[:nlanes] are the arguments wmask selects a byte of, in order.
	// A probe compares only these words, so only they (and the valid word)
	// are ever loaded without the writers' lock, and only they are stored
	// atomically.
	lanes  [syscalls.MaxArgs]uint8
	nlanes int
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
	t := &Table{slots: make([]slot, capacity), bitmask: bitmask, wmask: ExpandMask(bitmask)}
	for i, w := range t.wmask {
		if w != 0 {
			t.lanes[t.nlanes] = uint8(i)
			t.nlanes++
		}
	}
	return t
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
// args under the table's mask. Slots are probed in place: a slot is 64
// bytes, and a probe only needs to read the words it compares. Those are
// loaded atomically, so a caller without the writers' lock may probe too;
// only the seqlock check around its probe then makes the answer mean
// anything.
func (t *Table) holds(h uint64, args *hashes.Args) bool {
	s := &t.slots[t.index(h)]
	if atomic.LoadUint64(&s.valid) == 0 {
		return false
	}
	var diff uint64
	for _, i := range t.lanes[:t.nlanes] {
		diff |= (atomic.LoadUint64(&s.args[i]) ^ args[i]) & t.wmask[i]
	}
	return diff == 0
}

// store overwrites slot s with e: the compared argument words and the valid
// word atomically, the rest plainly, since only lock holders read them.
func (t *Table) store(s *slot, e *Entry) {
	for i := range s.args {
		if t.wmask[i] != 0 {
			atomic.StoreUint64(&s.args[i], e.Args[i])
		} else {
			s.args[i] = e.Args[i]
		}
	}
	s.hash = e.Hash
	var valid uint64
	if e.Valid {
		valid = 1
	}
	atomic.StoreUint64(&s.valid, valid)
}

// way reports which of pair's two slots holds args: 1 or 2, H1's first,
// and 0 when neither does.
func (t *Table) way(pair hashes.Pair, args *hashes.Args) int {
	switch {
	case t.holds(pair.H1, args):
		return 1
	case t.holds(pair.H2, args):
		return 2
	}
	return 0
}

// Lookup probes both ways for an argument set equal to args (compared under
// the table's bitmask) and reports whether it was found, and under which
// hash function (1 or 2; 0 when absent). Both probe indices are returned so
// timing models can charge the two parallel memory accesses. The caller
// holds the writers' lock, or there are no writers.
func (t *Table) Lookup(args hashes.Args) (found bool, way int, pair hashes.Pair) {
	pair = hashes.ArgSetOf(&args, t.bitmask)
	way = t.way(pair, &args)
	return way != 0, way, pair
}

// SharedLookup is Lookup for a caller that does not hold the writers' lock.
// way is 1 or 2 only for a validated hit: no writer was active and none
// intervened while the matching slot was read, so args was resident at that
// instant, and pair is its hash pair. Otherwise way is 0 — a miss, or a
// probe a writer disturbed — and the caller must redo it under the lock.
func (t *Table) SharedLookup(args *hashes.Args) (way int, pair hashes.Pair) {
	seq := t.seq.Load()
	if seq&1 != 0 {
		return 0, pair
	}
	pair = hashes.ArgSetOf(args, t.bitmask)
	if way = t.way(pair, args); way == 0 || t.seq.Load() != seq {
		return 0, pair
	}
	return way, pair
}

// SharedContains is SharedLookup for a caller that needs no hash value: it
// computes H1, probes that slot, and computes H2 only if H1's slot does not
// hold args. True means a validated hit; false means redo under the lock.
func (t *Table) SharedContains(args *hashes.Args) bool {
	seq := t.seq.Load()
	if seq&1 != 0 {
		return false
	}
	if !t.holds(hashes.ArgH1(args, t.bitmask), args) &&
		!t.holds(hashes.ArgH2(args, t.bitmask), args) {
		return false
	}
	return t.seq.Load() == seq
}

// LookupHash probes for an entry stored under the exact hash value h. This
// is the access the hardware SLB preloader performs: the STB supplies a hash
// value, not an argument set (paper §VI-B).
func (t *Table) LookupHash(h uint64) (Entry, bool) {
	s := &t.slots[t.index(h)]
	if s.valid != 0 && s.hash == h {
		return s.entry(), true
	}
	return Entry{}, false
}

// Put adds args as a validated set and returns the hash value under which
// it is stored. pair is args' hash pair under the table's bitmask, as
// Lookup returned it: a caller that just missed passes it on rather than
// hash the set again. Putting an already-present set is a no-op returning
// the existing way's hash. resident is false when the relocation chain ran
// out and the entry it dropped was the new one: nothing is stored for args
// then, and hash is zero.
func (t *Table) Put(args hashes.Args, pair hashes.Pair) (hash uint64, resident bool) {
	if h, ok := t.storedHash(&args, pair); ok {
		return h, true
	}
	t.seq.Add(1) // odd: slots are about to change under shared probes
	defer t.seq.Add(1)
	e := Entry{Args: args, Hash: pair.H1, Valid: true}
	// Try H1's slot, then displace along the cuckoo chain.
	for n := 0; n < RelocationLimit; n++ {
		s := &t.slots[t.index(e.Hash)]
		victim := s.entry()
		t.store(s, &e)
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

// Insert is Put without the residency report, hashing args itself: the
// zero hash stands for a set that was not kept.
func (t *Table) Insert(args hashes.Args) uint64 {
	h, _ := t.Put(args, hashes.ArgSet(args, t.bitmask))
	return h
}

// storedHash returns the hash under which args currently resides, if it does.
func (t *Table) storedHash(args *hashes.Args, pair hashes.Pair) (uint64, bool) {
	switch t.way(pair, args) {
	case 1:
		return pair.H1, true
	case 2:
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
		t.seq.Add(1)
		t.store(&t.slots[t.index(h)], &Entry{})
		t.seq.Add(1)
		t.used--
	}
	return ok
}

// Clear removes all entries.
func (t *Table) Clear() {
	t.seq.Add(1)
	for i := range t.slots {
		t.store(&t.slots[i], &Entry{})
	}
	t.seq.Add(1)
	t.used = 0
}

// Entries returns a copy of all valid entries (test/diagnostic helper).
func (t *Table) Entries() []Entry {
	out := make([]Entry, 0, t.used)
	for i := range t.slots {
		if s := &t.slots[i]; s.valid != 0 {
			out = append(out, s.entry())
		}
	}
	return out
}
