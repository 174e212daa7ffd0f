// Package syscalls provides the x86-64 Linux system call table used by every
// other layer of the Draco reproduction: system call numbers, names, argument
// counts, and which arguments are pointers.
//
// Pointer arguments matter because neither Seccomp nor Draco checks them: a
// check on a pointed-to value would be vulnerable to TOCTOU races (paper
// §II-B). The Draco SPT therefore derives its 48-bit Argument Bitmask only
// from non-pointer arguments.
package syscalls

import (
	"fmt"
	"sort"
)

// MaxArgs is the maximum number of arguments an x86-64 system call takes.
const MaxArgs = 6

// ArgBytes is the width of one system call argument in bytes.
const ArgBytes = 8

// BitmaskBits is the width of the Draco argument bitmask: one bit per
// argument byte, 6 args x 8 bytes (paper §V-B).
const BitmaskBits = MaxArgs * ArgBytes

// Info describes one system call.
type Info struct {
	// Num is the x86-64 system call number (the value in rax).
	Num int
	// Name is the canonical kernel name.
	Name string
	// NArgs is the number of arguments the call takes (0..6).
	NArgs int
	// PtrMask has bit i set when argument i is a pointer. Pointer
	// arguments are excluded from checking.
	PtrMask uint8
}

// CheckedArgs returns the indices of arguments that are subject to value
// checking: the non-pointer arguments.
func (in Info) CheckedArgs() []int {
	out := make([]int, 0, in.NArgs)
	for i := 0; i < in.NArgs; i++ {
		if in.PtrMask&(1<<uint(i)) == 0 {
			out = append(out, i)
		}
	}
	return out
}

// NCheckedArgs returns the number of non-pointer arguments.
func (in Info) NCheckedArgs() int {
	n := 0
	for i := 0; i < in.NArgs; i++ {
		if in.PtrMask&(1<<uint(i)) == 0 {
			n++
		}
	}
	return n
}

// ArgBitmask returns the Draco argument bitmask for this system call: one
// bit per argument byte, set for the meaningful bytes of every checked
// (non-pointer) argument. The low 8 bits correspond to argument 0 (paper
// §V-B: "for a system call that uses two arguments of one byte each, the
// Argument Bitmask has bits 0 and 8 set"). Arguments narrower than a
// register (C int file descriptors, flags, ops — see widths.go) contribute
// only their low bytes.
func (in Info) ArgBitmask() uint64 {
	var m uint64
	for _, i := range in.CheckedArgs() {
		w := in.ArgWidth(i)
		byteBits := uint64(0xff)
		if w < ArgBytes {
			byteBits = (uint64(1) << uint(w)) - 1
		}
		m |= byteBits << uint(i*ArgBytes)
	}
	return m
}

// String implements fmt.Stringer.
func (in Info) String() string {
	return fmt.Sprintf("%s(%d)/%d", in.Name, in.Num, in.NArgs)
}

var (
	byNum  map[int]Info
	byName map[string]Info
	all    []Info
)

func init() {
	byNum = make(map[int]Info, len(table))
	byName = make(map[string]Info, len(table))
	for _, in := range table {
		if _, dup := byNum[in.Num]; dup {
			panic(fmt.Sprintf("syscalls: duplicate number %d (%s)", in.Num, in.Name))
		}
		if _, dup := byName[in.Name]; dup {
			panic(fmt.Sprintf("syscalls: duplicate name %s", in.Name))
		}
		if in.NArgs < 0 || in.NArgs > MaxArgs {
			panic(fmt.Sprintf("syscalls: %s has %d args", in.Name, in.NArgs))
		}
		byNum[in.Num] = in
		byName[in.Name] = in
	}
	all = make([]Info, len(table))
	copy(all, table)
	sort.Slice(all, func(i, j int) bool { return all[i].Num < all[j].Num })
}

// ByNum looks up a system call by number.
func ByNum(num int) (Info, bool) {
	in, ok := byNum[num]
	return in, ok
}

// ByName looks up a system call by kernel name.
func ByName(name string) (Info, bool) {
	in, ok := byName[name]
	return in, ok
}

// MustByName looks up a system call by name and panics if it is unknown.
// It is intended for static profile and workload definitions.
func MustByName(name string) Info {
	in, ok := byName[name]
	if !ok {
		panic("syscalls: unknown system call " + name)
	}
	return in
}

// All returns every known system call, ordered by number. The returned slice
// is shared; callers must not modify it.
func All() []Info {
	return all
}

// Count returns the number of system calls in the table. The paper reports
// 403 for its Linux version (§XI-D); the exact count here depends on the
// table below and is asserted in tests to be in the same range.
func Count() int {
	return len(all)
}

// ArgCountHistogram returns how many system calls take each argument count;
// index i holds the number of calls with i arguments. This drives the
// Figure 14 distribution and the SLB subtable sizing rationale (§XI-C).
func ArgCountHistogram() [MaxArgs + 1]int {
	var h [MaxArgs + 1]int
	for _, in := range all {
		h[in.NArgs]++
	}
	return h
}

// CheckedArgCountHistogram is like ArgCountHistogram but counts only
// checkable (non-pointer) arguments, which is what the SLB caches.
func CheckedArgCountHistogram() [MaxArgs + 1]int {
	var h [MaxArgs + 1]int
	for _, in := range all {
		h[in.NCheckedArgs()]++
	}
	return h
}
