package core

import (
	"draco/internal/cuckoo"
	"draco/internal/hashes"
)

// SlotBytes is the memory footprint of one VAT slot: six 8-byte arguments
// plus the stored hash.
const SlotBytes = 6*8 + 8

// DefaultVATBase is the virtual address where a process's VAT region is
// laid out. The address only matters to the cache timing model.
const DefaultVATBase = 0x7f5a_0000_0000

// VAT is a process's Validated Argument Table: one 2-ary cuckoo hash table
// per system call that checks arguments (paper §V-B, §VII-A). Tables live
// at stable virtual addresses so the hardware model can walk the memory
// hierarchy on VAT accesses.
type VAT struct {
	// sections is indexed by syscall ID, like the SPT; a nil table marks a
	// syscall without a section.
	sections []vatSection
	n        int
	nextVA   uint64
}

type vatSection struct {
	table *cuckoo.Table
	base  uint64
}

// NewVAT creates an empty VAT with its region based at DefaultVATBase.
func NewVAT() *VAT {
	return &VAT{nextVA: DefaultVATBase}
}

// section returns the syscall's section; its table is nil when there is none.
func (v *VAT) section(sid int) vatSection {
	if uint(sid) >= uint(len(v.sections)) {
		return vatSection{}
	}
	return v.sections[sid]
}

// CreateTable allocates the cuckoo table for a syscall, sized for
// estimatedSets argument sets (the OS sizes it from the Seccomp profile,
// §VII-A). It returns the section's base virtual address. Creating a table
// that already exists returns the existing base.
func (v *VAT) CreateTable(sid int, estimatedSets int, bitmask uint64) uint64 {
	if s := v.section(sid); s.table != nil {
		return s.base
	}
	if sid >= len(v.sections) {
		grown := make([]vatSection, sid+1)
		copy(grown, v.sections)
		v.sections = grown
	}
	t := cuckoo.New(estimatedSets, bitmask)
	base := v.nextVA
	v.sections[sid] = vatSection{table: t, base: base}
	v.n++
	// Keep sections cache-line aligned; the next table starts after this
	// one's slots.
	size := uint64(t.SizeBytes())
	v.nextVA += (size + 63) &^ 63
	return base
}

// Table returns the cuckoo table for a syscall, or nil.
func (v *VAT) Table(sid int) *cuckoo.Table { return v.section(sid).table }

// SlotAddr returns the virtual address the given hash probes in the
// syscall's section; the hardware fetches this address through the cache
// hierarchy (Figure 7 step 3).
func (v *VAT) SlotAddr(sid int, hash uint64) uint64 {
	s := v.section(sid)
	if s.table == nil {
		return 0
	}
	idx := hash & uint64(s.table.Cap()-1)
	return s.base + idx*SlotBytes
}

// Lookup probes the syscall's table for an argument set.
func (v *VAT) Lookup(sid int, args hashes.Args) (found bool, way int, pair hashes.Pair) {
	t := v.Table(sid)
	if t == nil {
		return false, 0, hashes.Pair{}
	}
	return t.Lookup(args)
}

// LookupHash probes by stored hash value, the access the SLB preloader
// performs (paper §VI-B).
func (v *VAT) LookupHash(sid int, hash uint64) (cuckoo.Entry, bool) {
	t := v.Table(sid)
	if t == nil {
		return cuckoo.Entry{}, false
	}
	return t.LookupHash(hash)
}

// SizeBytes returns the total memory the VAT occupies; the paper reports a
// geometric mean of 6.98KB per process (§XI-C).
func (v *VAT) SizeBytes() int {
	n := 0
	for _, s := range v.sections {
		if s.table != nil {
			n += s.table.SizeBytes()
		}
	}
	return n
}

// NumTables returns how many syscalls have argument tables.
func (v *VAT) NumTables() int { return v.n }

// SIDs returns the syscall IDs with tables, ascending.
func (v *VAT) SIDs() []int {
	out := make([]int, 0, v.n)
	for sid, s := range v.sections {
		if s.table != nil {
			out = append(out, sid)
		}
	}
	return out
}
