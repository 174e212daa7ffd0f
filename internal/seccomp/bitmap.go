package seccomp

import (
	"draco/internal/bpf"
)

// This file implements the per-syscall constant-action bitmap, modeled on
// the seccomp cache Linux gained in 5.11: at filter attach time, abstractly
// interpret the filter once per syscall number with the arguments (and ip)
// treated as unknown. If every path the filter can take for that number
// provably returns the same action regardless of the unknown words, the
// action is recorded and later checks of that number resolve in O(1)
// without executing the filter at all.
//
// Soundness argument: the abstract lattice has two levels per 32-bit cell
// — known(v), meaning the cell equals v on every concrete run with this
// (nr, arch), and unknown, meaning no claim. Every abstract transfer
// function only marks a cell known when the concrete semantics forces that
// exact value (constants, loads of the fixed nr/arch words, ALU over known
// operands), and every branch whose condition depends on an unknown cell
// propagates to BOTH targets. States meeting at a join keep only cells
// that are known-equal on both sides. The analysis therefore explores a
// superset of the concretely reachable paths, and declares the action
// known only when every reachable RET site returns one identical known
// value. Anything the analysis cannot prove — indirect or MSH loads,
// division by an unknown (or zero) X, a potentially-faulting load, RET A
// with A unknown, or two different reachable return values — makes the
// syscall fall back to real filter execution, never mis-resolves it.
// Forward-only jumps (enforced by validation) make the program a DAG, so
// one pass in pc order with per-pc state merging visits each reachable
// instruction once. The pass carries its state in place from each
// instruction to the next and queues a state only at a branch on an
// unknown condition, where the far target waits to be joined by every
// other path reaching it; a resolved branch (the nr dispatch, nearly every
// step) costs no copy and no queue operation.
const (
	// BitmapMaxNr bounds the syscall numbers the bitmap covers; x86-64
	// numbers fit comfortably. Checks outside the range use the filter.
	BitmapMaxNr = 512
)

// Bitmap holds the provably arg-independent actions of one filter program
// for one architecture. Immutable after ComputeBitmap; safe to share.
type Bitmap struct {
	arch    uint32
	known   [BitmapMaxNr]bool
	actions [BitmapMaxNr]Action
	count   int
}

// Lookup resolves a check in O(1) if the action for this (arch, nr) is
// provably argument-independent.
func (b *Bitmap) Lookup(d *Data) (Action, bool) {
	if b == nil || d.Arch != b.arch || uint32(d.Nr) >= BitmapMaxNr {
		return 0, false
	}
	return b.actions[d.Nr], b.known[d.Nr]
}

// Known reports whether nr resolves through the bitmap.
func (b *Bitmap) Known(nr int32) bool {
	return b != nil && uint32(nr) < BitmapMaxNr && b.known[nr]
}

// ConstAction returns the proven argument-independent action for nr, if
// any: the compile hook profile-plane builders use to decide at attach
// time that a syscall's whole decision is a constant.
func (b *Bitmap) ConstAction(nr int32) (Action, bool) {
	if b == nil || uint32(nr) >= BitmapMaxNr || !b.known[nr] {
		return 0, false
	}
	return b.actions[nr], true
}

// KnownCount returns how many syscall numbers resolve through the bitmap.
func (b *Bitmap) KnownCount() int {
	if b == nil {
		return 0
	}
	return b.count
}

// absVal is one abstract 32-bit cell: a proven constant or unknown.
type absVal struct {
	known bool
	v     uint32
}

// absState is the abstract machine state reaching one pc.
type absState struct {
	a, x absVal
	mem  [bpf.ScratchSlots]absVal
}

// pending is a queued branch target and the join of the states reaching it.
type pending struct {
	pc int32
	st absState
}

// bitmapComputer holds what the per-nr passes queue: the heap of queued
// pcs and, in pend, the join of the states reaching each. slot maps a pc
// to its entry in pend, valid only while pend[slot[pc]].pc == pc (a sparse
// set), so one slot array of len(prog) serves all passes without clearing.
type bitmapComputer struct {
	prog bpf.Program
	slot []int32
	pend []pending
	heap []int32 // min-heap of pending pcs for the current pass
}

// ComputeBitmap abstractly interprets prog for every syscall number in
// range, for the x86-64 architecture word, and returns the bitmap of
// proven constant actions. The program must already validate; numbers
// whose analysis bails for any reason are simply left unknown.
func ComputeBitmap(prog bpf.Program) *Bitmap {
	if prog.ValidateMax(bpf.ExtendedMaxInsns) != nil {
		return nil
	}
	b := &Bitmap{arch: AuditArchX8664}
	c := &bitmapComputer{prog: prog, slot: make([]int32, len(prog))}
	for nr := uint32(0); nr < BitmapMaxNr; nr++ {
		if act, ok := c.run(nr, b.arch); ok {
			b.known[nr] = true
			b.actions[nr] = act
			b.count++
		}
	}
	return b
}

// push queues pc for processing, merging st into its pending state.
func (c *bitmapComputer) push(pc int32, st *absState) {
	if i := c.slot[pc]; int(i) < len(c.pend) && c.pend[i].pc == pc {
		// Join: keep only cells proven equal on both paths.
		dst := &c.pend[i].st
		meet(&dst.a, st.a)
		meet(&dst.x, st.x)
		for i := range dst.mem {
			meet(&dst.mem[i], st.mem[i])
		}
		return
	}
	c.slot[pc] = int32(len(c.pend))
	c.pend = append(c.pend, pending{pc: pc, st: *st})
	// Sift up.
	c.heap = append(c.heap, pc)
	i := len(c.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if c.heap[parent] <= c.heap[i] {
			break
		}
		c.heap[parent], c.heap[i] = c.heap[i], c.heap[parent]
		i = parent
	}
}

func meet(dst *absVal, src absVal) {
	if !src.known || !dst.known || dst.v != src.v {
		dst.known = false
	}
}

// pop removes the smallest pending pc and loads its joined state into st.
func (c *bitmapComputer) pop(st *absState) int32 {
	pc := c.heap[0]
	last := len(c.heap) - 1
	c.heap[0] = c.heap[last]
	c.heap = c.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l <= last-1 && c.heap[l] < c.heap[small] {
			small = l
		}
		if r <= last-1 && c.heap[r] < c.heap[small] {
			small = r
		}
		if small == i {
			break
		}
		c.heap[i], c.heap[small] = c.heap[small], c.heap[i]
		i = small
	}
	*st = c.pend[c.slot[pc]].st
	return pc
}

// initState is the machine at pc 0: A, X and every scratch word are 0.
var initState = func() (st absState) {
	st.a = absVal{known: true}
	st.x = absVal{known: true}
	for i := range st.mem {
		st.mem[i] = absVal{known: true}
	}
	return st
}()

// run analyzes one syscall number; ok reports a proven constant action.
// It visits pcs in increasing order, as a worklist over the whole program
// would: the current state steps to its successor in place unless a queued
// pc comes first (or is the successor itself, whose states must join), and
// jumps are forward only, so no path can reach a pc already passed.
func (c *bitmapComputer) run(nr, arch uint32) (Action, bool) {
	c.heap = c.heap[:0]
	c.pend = c.pend[:0]
	st := initState
	var ret absVal
	haveRet := false
	pc := int32(0)
	for {
		ins := c.prog[pc]
		next := pc + 1
		switch ins.Op & 0x07 {
		case bpf.ClassLD, bpf.ClassLDX:
			v, ok := absLoad(ins, nr, arch, st.x, &st.mem)
			if !ok {
				return 0, false // potential fault or unmodeled mode: bail
			}
			if ins.Op&0x07 == bpf.ClassLDX {
				st.x = v
			} else {
				st.a = v
			}
		case bpf.ClassST:
			st.mem[ins.K] = st.a
		case bpf.ClassSTX:
			st.mem[ins.K] = st.x
		case bpf.ClassALU:
			v, ok := absALU(ins, st.a, st.x)
			if !ok {
				return 0, false // division by unknown or zero X: bail
			}
			st.a = v
		case bpf.ClassJMP:
			op := ins.Op & 0xf0
			if op == bpf.JmpJA {
				next = pc + 1 + int32(ins.K)
				break
			}
			operand := absVal{known: true, v: ins.K}
			if ins.Op&bpf.SrcX != 0 {
				operand = st.x
			}
			tt := pc + 1 + int32(ins.Jt)
			tf := pc + 1 + int32(ins.Jf)
			if st.a.known && operand.known {
				var cond bool
				switch op {
				case bpf.JmpJEQ:
					cond = st.a.v == operand.v
				case bpf.JmpJGT:
					cond = st.a.v > operand.v
				case bpf.JmpJGE:
					cond = st.a.v >= operand.v
				case bpf.JmpJSET:
					cond = st.a.v&operand.v != 0
				}
				next = tf
				if cond {
					next = tt
				}
			} else {
				// Condition depends on unknown input: both ways. The far
				// target waits in the queue; the near one goes on below.
				next = min(tt, tf)
				if far := max(tt, tf); far != next {
					c.push(far, &st)
				}
			}
		case bpf.ClassRET:
			v := absVal{known: true, v: ins.K}
			if ins.Op&0x18 == 0x10 {
				v = st.a
			}
			if !v.known {
				return 0, false
			}
			if haveRet && ret.v != v.v {
				return 0, false // two reachable outcomes: arg-dependent
			}
			ret, haveRet = v, true
			if len(c.heap) == 0 {
				return Action(ret.v), true
			}
			pc = c.pop(&st)
			continue
		case bpf.ClassMISC:
			if ins.Op&0xf8 == bpf.MiscTAX {
				st.x = st.a
			} else {
				st.a = st.x
			}
		}
		if len(c.heap) > 0 && c.heap[0] <= next {
			c.push(next, &st)
			pc = c.pop(&st)
			continue
		}
		pc = next
	}
}

// absLoad models a load against seccomp_data with fixed nr/arch and
// unknown ip/args; ok=false bails the whole pass (possible fault, or a
// mode whose effect we do not model).
func absLoad(ins bpf.Instruction, nr, arch uint32, x absVal, mem *[bpf.ScratchSlots]absVal) (absVal, bool) {
	switch ins.Op & 0xe0 {
	case bpf.ModeIMM:
		return absVal{known: true, v: ins.K}, true
	case bpf.ModeLEN:
		return absVal{known: true, v: DataSize}, true
	case bpf.ModeMEM:
		return mem[ins.K], true
	case bpf.ModeABS:
		size := loadSize(ins)
		if uint64(ins.K)+uint64(size) > DataSize {
			return absVal{}, false // would fault
		}
		if size == 4 && ins.K == OffNr {
			return absVal{known: true, v: nr}, true
		}
		if size == 4 && ins.K == OffArch {
			return absVal{known: true, v: arch}, true
		}
		return absVal{}, true // ip/args word: unknown but safe
	case bpf.ModeIND:
		if !x.known {
			return absVal{}, false // offset unknown: could fault
		}
		size := loadSize(ins)
		if uint64(ins.K)+uint64(x.v)+uint64(size) > DataSize {
			return absVal{}, false
		}
		return absVal{}, true
	case bpf.ModeMSH:
		if uint64(ins.K) >= DataSize {
			return absVal{}, false
		}
		return absVal{}, true // derived from an unknown data byte
	}
	return absVal{}, false
}

func loadSize(ins bpf.Instruction) uint32 {
	switch ins.Op & 0x18 {
	case bpf.SizeH:
		return 2
	case bpf.SizeB:
		return 1
	}
	return 4
}

// absALU models an ALU op; results are known only when forced.
func absALU(ins bpf.Instruction, a, x absVal) (absVal, bool) {
	op := ins.Op & 0xf0
	if op == bpf.ALUNeg {
		if !a.known {
			return absVal{}, true
		}
		return absVal{known: true, v: -a.v}, true
	}
	operand := absVal{known: true, v: ins.K}
	if ins.Op&bpf.SrcX != 0 {
		operand = x
	}
	if op == bpf.ALUDiv || op == bpf.ALUMod {
		if !operand.known {
			return absVal{}, false // could divide by zero at runtime
		}
		if operand.v == 0 {
			return absVal{}, false
		}
	}
	if !a.known || !operand.known {
		return absVal{}, true
	}
	v := a.v
	switch op {
	case bpf.ALUAdd:
		v += operand.v
	case bpf.ALUSub:
		v -= operand.v
	case bpf.ALUMul:
		v *= operand.v
	case bpf.ALUDiv:
		v /= operand.v
	case bpf.ALUOr:
		v |= operand.v
	case bpf.ALUAnd:
		v &= operand.v
	case bpf.ALULsh:
		v <<= operand.v & 31
	case bpf.ALURsh:
		v >>= operand.v & 31
	case bpf.ALUMod:
		v %= operand.v
	case bpf.ALUXor:
		v ^= operand.v
	}
	return absVal{known: true, v: v}, true
}
