package hwdraco

import (
	"draco/internal/core"
	"draco/internal/cuckoo"
	"draco/internal/hashes"
	"draco/internal/syscalls"
)

// --- System Call Target Buffer (Figure 8) -------------------------------

type stbEntry struct {
	valid bool
	pc    uint64
	sid   int
	hash  uint64
}

// STB is the PC-indexed predictor: from a syscall instruction's PC it
// recovers the SID (unique per PC) and the hash value that last fetched
// this site's argument set from the VAT.
type STB struct {
	sets [][]stbEntry // LRU-ordered, index 0 MRU
	nset uint64
	ways int
}

// NewSTB builds an STB with the given geometry.
func NewSTB(entries, ways int) *STB {
	n := entries / ways
	s := &STB{nset: uint64(n), ways: ways}
	s.sets = make([][]stbEntry, n)
	return s
}

func (s *STB) set(pc uint64) int {
	// Fold the PC so call sites spread across sets regardless of code
	// layout (real BTBs hash several PC bit ranges for the same reason).
	h := (pc >> 2) * 0x9E3779B97F4A7C15
	return int((h >> 32) % s.nset)
}

// Lookup probes by PC.
func (s *STB) Lookup(pc uint64) (sid int, hash uint64, ok bool) {
	ws := s.sets[s.set(pc)]
	for i, e := range ws {
		if e.valid && e.pc == pc {
			copy(ws[1:i+1], ws[:i])
			ws[0] = e
			return e.sid, e.hash, true
		}
	}
	return 0, 0, false
}

// Fill installs or updates the entry for pc.
func (s *STB) Fill(pc uint64, sid int, hash uint64) {
	idx := s.set(pc)
	ws := s.sets[idx]
	for i, e := range ws {
		if e.valid && e.pc == pc {
			e.sid, e.hash = sid, hash
			copy(ws[1:i+1], ws[:i])
			ws[0] = e
			return
		}
	}
	e := stbEntry{valid: true, pc: pc, sid: sid, hash: hash}
	if len(ws) < s.ways {
		ws = append(ws, stbEntry{})
	}
	copy(ws[1:], ws)
	ws[0] = e
	s.sets[idx] = ws
}

// Invalidate clears the STB (context switch to a different process).
func (s *STB) Invalidate() {
	for i := range s.sets {
		s.sets[i] = s.sets[i][:0]
	}
}

// --- System Call Lookaside Buffer (Figure 6) ----------------------------

type slbEntry struct {
	valid bool
	sid   int
	hash  uint64
	args  hashes.Args
}

type slbSubtable struct {
	sets [][]slbEntry
	nset uint64
	ways int
}

// SLB is the System Call Lookaside Buffer: one set-associative subtable per
// argument count, sized individually (Figure 6: "this design minimizes the
// space needed to cache arguments").
type SLB struct {
	subs      [7]*slbSubtable
	hashIndex bool
}

// NewSLB builds the SLB from config.
func NewSLB(cfg Config) *SLB {
	s := &SLB{hashIndex: cfg.SLBHashIndex}
	for argc := 1; argc <= syscalls.MaxArgs; argc++ {
		sc := cfg.SLB[argc]
		if sc.Entries == 0 {
			sc = SubtableConfig{Entries: 16, Ways: 4}
		}
		n := sc.Entries / sc.Ways
		if n < 1 {
			n = 1
		}
		s.subs[argc] = &slbSubtable{sets: make([][]slbEntry, n), nset: uint64(n), ways: sc.Ways}
	}
	return s
}

func (s *SLB) sub(argc int) *slbSubtable {
	if argc < 1 {
		argc = 1
	}
	if argc > syscalls.MaxArgs {
		argc = syscalls.MaxArgs
	}
	return s.subs[argc]
}

func (t *slbSubtable) set(sid int) int {
	return int(uint64(sid) % t.nset)
}

func (t *slbSubtable) hashSet(hash uint64) int {
	return int(hash % t.nset)
}

// setsFor returns the candidate set indices for an entry: SID-indexed (the
// paper's design, one set) or hash-indexed (one set per hash).
func (s *SLB) setsFor(t *slbSubtable, sid int, hashCandidates ...uint64) []int {
	if !s.hashIndex {
		return []int{t.set(sid)}
	}
	out := make([]int, 0, len(hashCandidates))
	seen := -1
	for _, h := range hashCandidates {
		idx := t.hashSet(h)
		if idx != seen {
			out = append(out, idx)
			seen = idx
		}
	}
	return out
}

// Access probes for a validated entry matching (sid, args) under bitmask,
// updating LRU. This is the non-speculative ROB-head access. Hash-indexed
// SLBs probe the two candidate sets given by the argument hash pair.
func (s *SLB) Access(sid, argc int, args hashes.Args, bitmask uint64) (uint64, bool) {
	t := s.sub(argc)
	var sets []int
	if s.hashIndex {
		pair := hashes.ArgSet(args, bitmask)
		sets = s.setsFor(t, sid, pair.H1, pair.H2)
	} else {
		sets = s.setsFor(t, sid)
	}
	wm := cuckoo.ExpandMask(bitmask)
	for _, idx := range sets {
		ws := t.sets[idx]
		for i, e := range ws {
			if e.valid && e.sid == sid && cuckoo.EqualMasked(&e.args, &args, &wm) {
				copy(ws[1:i+1], ws[:i])
				ws[0] = e
				return e.hash, true
			}
		}
	}
	return 0, false
}

// ProbeHash checks whether an entry with (sid, hash) is present WITHOUT
// updating LRU state: the speculative preload check (paper §IX: "if an SLB
// preload request hits in the SLB, the LRU state of the SLB is not updated
// until the corresponding non-speculative SLB access").
func (s *SLB) ProbeHash(sid, argc int, hash uint64) bool {
	t := s.sub(argc)
	for _, idx := range s.setsFor(t, sid, hash) {
		for _, e := range t.sets[idx] {
			if e.valid && e.sid == sid && e.hash == hash {
				return true
			}
		}
	}
	return false
}

// AccessHash probes by (sid, hash) and UPDATES LRU state on a hit. The
// secure design never does this speculatively; it exists for the §IX
// insecure-speculation comparison.
func (s *SLB) AccessHash(sid, argc int, hash uint64) bool {
	t := s.sub(argc)
	for _, idx := range s.setsFor(t, sid, hash) {
		ws := t.sets[idx]
		for i, e := range ws {
			if e.valid && e.sid == sid && e.hash == hash {
				copy(ws[1:i+1], ws[:i])
				ws[0] = e
				return true
			}
		}
	}
	return false
}

// Fill installs a validated entry, evicting LRU within the set.
func (s *SLB) Fill(sid, argc int, hash uint64, args hashes.Args) {
	t := s.sub(argc)
	idx := t.set(sid)
	if s.hashIndex {
		idx = t.hashSet(hash)
	}
	ws := t.sets[idx]
	for i, e := range ws {
		if e.valid && e.sid == sid && e.hash == hash {
			e.args = args
			copy(ws[1:i+1], ws[:i])
			ws[0] = e
			return
		}
	}
	e := slbEntry{valid: true, sid: sid, hash: hash, args: args}
	if len(ws) < t.ways {
		ws = append(ws, slbEntry{})
	}
	copy(ws[1:], ws)
	ws[0] = e
	t.sets[idx] = ws
}

// Invalidate clears all subtables.
func (s *SLB) Invalidate() {
	for _, t := range s.subs {
		if t == nil {
			continue
		}
		for i := range t.sets {
			t.sets[i] = t.sets[i][:0]
		}
	}
}

// --- Temporary Buffer (paper §IX) ---------------------------------------

type tmpEntry struct {
	sid  int
	argc int
	hash uint64
	args hashes.Args
}

// TempBuffer holds speculatively preloaded VAT entries until the
// corresponding non-speculative access commits them into the SLB; a squash
// clears them without touching SLB state.
type TempBuffer struct {
	entries []tmpEntry
	cap     int
}

// NewTempBuffer builds a buffer of n entries.
func NewTempBuffer(n int) *TempBuffer {
	return &TempBuffer{cap: n}
}

// Add inserts a preloaded entry, dropping the oldest when full.
func (b *TempBuffer) Add(sid, argc int, hash uint64, args hashes.Args) {
	if len(b.entries) == b.cap {
		copy(b.entries, b.entries[1:])
		b.entries = b.entries[:len(b.entries)-1]
	}
	b.entries = append(b.entries, tmpEntry{sid: sid, argc: argc, hash: hash, args: args})
}

// Take removes and returns the entry matching (sid, args) under bitmask.
func (b *TempBuffer) Take(sid int, args hashes.Args, bitmask uint64) (tmpEntry, bool) {
	wm := cuckoo.ExpandMask(bitmask)
	for i, e := range b.entries {
		if e.sid == sid && cuckoo.EqualMasked(&e.args, &args, &wm) {
			b.entries = append(b.entries[:i], b.entries[i+1:]...)
			return e, true
		}
	}
	return tmpEntry{}, false
}

// Squash clears the buffer (mis-speculated syscall flushed from the ROB).
func (b *TempBuffer) Squash() { b.entries = b.entries[:0] }

// Len returns the number of pending entries.
func (b *TempBuffer) Len() int { return len(b.entries) }

// --- Hardware SPT --------------------------------------------------------

type hwSPTEntry struct {
	valid    bool
	accessed bool
	// argc caches the bitmask's argument count, computed once at Fill so
	// the per-syscall dispatch and ROB-head stages never re-popcount it.
	argc       uint8
	sid        int
	base       uint64
	argBitmask uint64
}

// HWSPT is the per-core direct-mapped hardware System Call Permissions
// Table (384 entries, Table II). A tag mismatch is a miss that must be
// refilled from the OS-side table.
type HWSPT struct {
	entries []hwSPTEntry
}

// NewHWSPT builds the table.
func NewHWSPT(entries int) *HWSPT {
	return &HWSPT{entries: make([]hwSPTEntry, entries)}
}

func (t *HWSPT) idx(sid int) int { return sid % len(t.entries) }

// Lookup probes by SID; it sets the Accessed bit on hit. argc is the
// entry's precomputed argument count.
func (t *HWSPT) Lookup(sid int) (base, bitmask uint64, argc int, ok bool) {
	e := &t.entries[t.idx(sid)]
	if e.valid && e.sid == sid {
		e.accessed = true
		return e.base, e.argBitmask, int(e.argc), true
	}
	return 0, 0, 0, false
}

// Fill installs an entry (refill from the OS-side SPT), precomputing the
// argument count once per refill instead of once per check.
func (t *HWSPT) Fill(sid int, base, bitmask uint64) {
	t.entries[t.idx(sid)] = hwSPTEntry{valid: true, sid: sid, base: base,
		argBitmask: bitmask, argc: uint8(core.CountArgs(bitmask)), accessed: true}
}

// Invalidate clears the table.
func (t *HWSPT) Invalidate() {
	for i := range t.entries {
		t.entries[i] = hwSPTEntry{}
	}
}

// ClearAccessed clears the periodic Accessed bits (paper §VII-B).
func (t *HWSPT) ClearAccessed() {
	for i := range t.entries {
		t.entries[i].accessed = false
	}
}

// AccessedCount returns how many valid entries have the Accessed bit set:
// the state saved across a context switch.
func (t *HWSPT) AccessedCount() int {
	n := 0
	for i := range t.entries {
		if t.entries[i].valid && t.entries[i].accessed {
			n++
		}
	}
	return n
}
