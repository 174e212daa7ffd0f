package ebpf

import (
	"fmt"
	"sync/atomic"
)

// MapSpec declares one per-tenant map: a fixed-size array of 64-bit slots.
// Array maps are the only kind — like the kernel's BPF_MAP_TYPE_ARRAY they
// make the verifier's bounds obligation a plain interval check, and a
// fixed-size atomic array is all the demo policies (counters, flags,
// phases, small allow-sets) need.
type MapSpec struct {
	// Name is the map's identifier in assembly text and JSON.
	Name string
	// Size is the slot count.
	Size uint32
}

// ValidateSpecs checks a map declaration list against the architectural
// limits.
func ValidateSpecs(specs []MapSpec) error {
	if len(specs) > MaxMaps {
		return fmt.Errorf("ebpf: %d maps exceeds the limit of %d", len(specs), MaxMaps)
	}
	seen := map[string]bool{}
	for i, s := range specs {
		if s.Name == "" {
			return fmt.Errorf("ebpf: map %d has no name", i)
		}
		if seen[s.Name] {
			return fmt.Errorf("ebpf: duplicate map %q", s.Name)
		}
		seen[s.Name] = true
		if s.Size == 0 || s.Size > MaxMapSize {
			return fmt.Errorf("ebpf: map %q size %d out of range [1, %d]", s.Name, s.Size, MaxMapSize)
		}
	}
	return nil
}

// MapSet is the live per-tenant state for one attached program: one atomic
// uint64 array per declared map. Slots are lock-free, so a single MapSet is
// shared by every caller of a concurrent checker; a profile hot-swap
// builds a fresh MapSet, the same epoch semantic the VAT applies to cached
// decisions: new generation, blank state.
type MapSet struct {
	vals [][]atomic.Uint64
}

// NewMapSet allocates zeroed state for specs (which must already be
// validated).
func NewMapSet(specs []MapSpec) *MapSet {
	m := &MapSet{vals: make([][]atomic.Uint64, len(specs))}
	for i, s := range specs {
		m.vals[i] = make([]atomic.Uint64, s.Size)
	}
	return m
}

// Load reads slot key of map mi. Out-of-range keys read as zero; the
// verifier proves key < size, so the guard is a belt-and-braces backstop
// that keeps a run memory-safe even if the verifier had a bug.
func (m *MapSet) Load(mi int, key uint64) uint64 {
	v := m.vals[mi]
	if key >= uint64(len(v)) {
		return 0
	}
	return v[key].Load()
}

// Store writes slot key of map mi; out-of-range keys are dropped.
func (m *MapSet) Store(mi int, key, val uint64) {
	v := m.vals[mi]
	if key >= uint64(len(v)) {
		return
	}
	v[key].Store(val)
}

// AddFetch atomically adds delta to slot key of map mi and returns the new
// value; out-of-range keys read as zero.
func (m *MapSet) AddFetch(mi int, key, delta uint64) uint64 {
	v := m.vals[mi]
	if key >= uint64(len(v)) {
		return 0
	}
	return v[key].Add(delta)
}

// Reset zeroes every slot, reverting the tenant to a blank epoch.
func (m *MapSet) Reset() {
	for _, v := range m.vals {
		for i := range v {
			v[i].Store(0)
		}
	}
}
