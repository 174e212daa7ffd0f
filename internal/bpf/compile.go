package bpf

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// This file implements the compiled execution tier for classic BPF: a
// Compile pass that pre-decodes a validated program once into a typed op
// stream with resolved absolute jump targets and fused common instruction
// pairs, executed by a specialized loop with no per-step opcode decode.
//
// The miss path of every Draco engine ultimately runs a Seccomp filter
// through this machinery (paper §IV: filter execution dominates cold-start
// and VAT-miss cost), so the compiled tier is built around the code the
// seccomp compilers emit:
//
//   - ld+jeq pairs (argument-value compares) fuse into one op.
//   - ld+and+jeq triples (masked-condition compares) fuse into one op.
//   - jeq ladders — chains of constant equality tests linked by their
//     false edges, exactly the per-syscall dispatch of a linear-shape
//     filter — collapse into a table dispatch (dense table when the key
//     span is small, binary search otherwise).
//   - Unconditional-jump trampolines (the ja hops the compilers emit when
//     a body exceeds an 8-bit displacement) are threaded away: branch
//     targets point past them, with the traversed instructions charged to
//     the branch's cost.
//
// Every transformation preserves the interpreter's observable behaviour
// bit for bit — return value, error, and the Executed instruction count
// the kernelmodel/energymodel cycle accounting charges for. Fused ops
// carry the number of original instructions they stand for on each exit
// edge, and table dispatches charge the exact number of ladder compares
// the interpreter would have executed for the matched (or missed) key.

// Dense opcodes for the pre-decoded stream. One op per original
// instruction slot: fused ops live in the slot of their first instruction
// and jump over the rest, while the skipped slots keep their original ops
// so jumps into the middle of a fused pattern stay valid.
const (
	opRetK uint8 = iota
	opRetA

	opLdImm
	opLdLen
	opLdMem
	opLdAbsW
	opLdAbsH
	opLdAbsB
	opLdIndW
	opLdIndH
	opLdIndB

	opLdxImm
	opLdxLen
	opLdxMem
	opLdxAbsW
	opLdxAbsH
	opLdxAbsB
	opLdxIndW
	opLdxIndH
	opLdxIndB
	opLdxMsh

	opSt
	opStx

	opAddK
	opSubK
	opMulK
	opDivK
	opOrK
	opAndK
	opLshK
	opRshK
	opModK
	opXorK
	opNeg

	opAddX
	opSubX
	opMulX
	opDivX
	opOrX
	opAndX
	opLshX
	opRshX
	opModX
	opXorX

	opJa
	opJeqK
	opJgtK
	opJgeK
	opJsetK
	opJeqX
	opJgtX
	opJgeX
	opJsetX

	opTax
	opTxa

	// Fused ops (see the file comment).
	opLdJeq    // ld [k]; jeq k' — compare a freshly loaded word
	opLdAndJeq // ld [k]; and m; jeq k' — masked-condition compare
	opSwitch   // table dispatch on A over a jeq ladder
	opLdSwitch // ld [k]; table dispatch — ladder entered through its load
)

// xop is one pre-decoded op. Field use varies by opcode:
//
//	plain ops:  k = immediate/offset, aux = bounds limit for packet loads
//	jumps:      jt/jf = absolute targets, costT/costF = instructions
//	            charged on the taken/fallthrough edge (>1 after threading)
//	opLdJeq:    off = load offset, k = compare value
//	opLdAndJeq: off = load offset, aux = mask, k = compare value
//	opSwitch:   k = table index, aux = entry position in the ladder,
//	            jt = cumulative ladder cost at the entry, costT = lead
//	            instructions charged before the ladder (the fused load)
type xop struct {
	code  uint8
	_     uint8
	costT uint16
	costF uint16
	_     uint16
	k     uint32
	off   uint32
	aux   uint32
	jt    int32
	jf    int32
}

// tableEnt is one ladder key: its position in the chain, its absolute
// match target, and the total instructions the interpreter executes from
// the chain head through the matching compare.
type tableEnt struct {
	pos  int32
	tgt  int32
	cost int32
}

// jumpTable is one collapsed jeq ladder.
type jumpTable struct {
	// dense maps (key - min) to entry index + 1 when the key span is
	// small; nil selects binary search over keys.
	dense []int32
	min   uint32
	keys  []uint32 // sorted
	ent   []tableEnt
	// cumN is the total fallthrough cost of the whole ladder; def is where
	// a full miss exits.
	cumN int32
	def  int32
}

// tableSorter orders a table's keys (with their entries) for binary search.
type tableSorter struct {
	keys []uint32
	ents []tableEnt
}

func (s *tableSorter) Len() int           { return len(s.keys) }
func (s *tableSorter) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *tableSorter) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.ents[i], s.ents[j] = s.ents[j], s.ents[i]
}

// find returns the entry index for v, or -1.
func (t *jumpTable) find(v uint32) int32 {
	if t.dense != nil {
		d := v - t.min
		if d < uint32(len(t.dense)) {
			return t.dense[d] - 1
		}
		return -1
	}
	lo, hi := 0, len(t.keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.keys[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(t.keys) && t.keys[lo] == v {
		return int32(lo)
	}
	return -1
}

// Exec is a compiled program: immutable after Compile and safe for
// concurrent use (all run state lives on Run's stack).
type Exec struct {
	ops    []xop
	tables []jumpTable
	n      int
}

// Len returns the original program length in instructions.
func (e *Exec) Len() int { return e.n }

// Tables returns how many ladder-dispatch tables the compiler built
// (diagnostic; benchmarks and tests assert fusion actually happened).
func (e *Exec) Tables() int { return len(e.tables) }

// Compile validates a program (against the extended length limit) and
// lowers it to the compiled execution tier.
func Compile(p Program) (*Exec, error) {
	if err := p.ValidateMax(ExtendedMaxInsns); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotValidated, err)
	}
	e := &Exec{ops: make([]xop, len(p)), n: len(p)}
	for i, ins := range p {
		e.ops[i] = decode(ins, int32(i))
	}
	e.threadJumps()
	sc := chainScratch{seen: map[uint32]uint32{}}
	e.buildLadders(&sc)
	e.fuseLoads()
	e.buildLoadLadders(&sc)
	return e, nil
}

// decode lowers one instruction to its dense op with absolute targets.
func decode(ins Instruction, pc int32) xop {
	op := xop{costT: 1, costF: 1, jt: pc + 1, jf: pc + 1}
	switch ins.Op & 0x07 {
	case ClassLD, ClassLDX:
		ldx := ins.Op&0x07 == ClassLDX
		size := uint32(4)
		switch ins.Op & 0x18 {
		case SizeH:
			size = 2
		case SizeB:
			size = 1
		}
		switch ins.Op & 0xe0 {
		case ModeIMM:
			op.code, op.k = opLdImm, ins.K
		case ModeLEN:
			op.code = opLdLen
		case ModeMEM:
			op.code, op.k = opLdMem, ins.K
		case ModeABS:
			op.code = opLdAbsW + uint8(map4(size))
			op.k, op.aux = ins.K, ins.K+size // aux: precomputed bounds limit
		case ModeIND:
			op.code = opLdIndW + uint8(map4(size))
			op.k, op.aux = ins.K, size
		case ModeMSH:
			op.code, op.k = opLdxMsh, ins.K
			return op
		}
		if ldx {
			op.code += opLdxImm - opLdImm
		}
	case ClassST:
		op.code, op.k = opSt, ins.K
	case ClassSTX:
		op.code, op.k = opStx, ins.K
	case ClassALU:
		srcX := ins.Op&SrcX != 0
		switch ins.Op & 0xf0 {
		case ALUAdd:
			op.code = opAddK
		case ALUSub:
			op.code = opSubK
		case ALUMul:
			op.code = opMulK
		case ALUDiv:
			op.code = opDivK
		case ALUOr:
			op.code = opOrK
		case ALUAnd:
			op.code = opAndK
		case ALULsh:
			op.code = opLshK
		case ALURsh:
			op.code = opRshK
		case ALUMod:
			op.code = opModK
		case ALUXor:
			op.code = opXorK
		case ALUNeg:
			op.code = opNeg
			return op
		}
		if srcX {
			op.code += opAddX - opAddK
		} else {
			op.k = ins.K
		}
	case ClassJMP:
		switch ins.Op & 0xf0 {
		case JmpJA:
			op.code = opJa
			op.jt = pc + 1 + int32(ins.K)
			return op
		case JmpJEQ:
			op.code = opJeqK
		case JmpJGT:
			op.code = opJgtK
		case JmpJGE:
			op.code = opJgeK
		case JmpJSET:
			op.code = opJsetK
		}
		if ins.Op&SrcX != 0 {
			op.code += opJeqX - opJeqK
		} else {
			op.k = ins.K
		}
		op.jt = pc + 1 + int32(ins.Jt)
		op.jf = pc + 1 + int32(ins.Jf)
	case ClassRET:
		if ins.Op&0x18 == 0x10 {
			op.code = opRetA
		} else {
			op.code, op.k = opRetK, ins.K
		}
	case ClassMISC:
		if ins.Op&0xf8 == MiscTAX {
			op.code = opTax
		} else {
			op.code = opTxa
		}
	}
	return op
}

// map4 maps a load size in bytes to the W/H/B opcode offset.
func map4(size uint32) uint32 {
	switch size {
	case 2:
		return 1
	case 1:
		return 2
	}
	return 0
}

// threadJumps redirects branch targets past chains of unconditional
// jumps, charging each threaded ja to the branch edge's cost. Capped so
// costs stay small; a residual ja simply executes normally.
func (e *Exec) threadJumps() {
	follow := func(t int32, cost uint16) (int32, uint16) {
		for hops := 0; hops < 32 && e.ops[t].code == opJa; hops++ {
			cost++
			t = e.ops[t].jt
		}
		return t, cost
	}
	for i := range e.ops {
		op := &e.ops[i]
		switch op.code {
		case opJa:
			op.jt, op.costT = follow(op.jt, op.costT)
		case opJeqK, opJgtK, opJgeK, opJsetK, opJeqX, opJgtX, opJgeX, opJsetX:
			op.jt, op.costT = follow(op.jt, op.costT)
			op.jf, op.costF = follow(op.jf, op.costF)
		}
	}
}

// ladderMinLen is the shortest chain worth a dispatch table; shorter
// ladders stay as (possibly load-fused) compare ops.
const ladderMinLen = 4

// denseMaxSpan bounds the key span a dense O(1) table may cover; wider
// ladders use binary search.
const denseMaxSpan = 4096

// buildLadders collapses chains of constant-equality jumps linked by
// their false edges — the per-syscall dispatch of a linear filter — into
// shared table dispatches. Every chain member becomes a opSwitch with its
// own entry position, so jumps into the middle of the ladder dispatch
// over exactly the compares the interpreter would still execute.
func (e *Exec) buildLadders(sc *chainScratch) {
	for s := range e.ops {
		if e.ops[s].code != opJeqK {
			continue
		}
		chain := e.collectChain(sc, int32(s), opJeqK, 0)
		if len(chain) < ladderMinLen {
			continue
		}
		ti := e.makeTable(chain, func(r int32) (uint16, uint16, int32, uint32) {
			op := &e.ops[r]
			return op.costF, op.costT, op.jt, op.k
		})
		cum := int32(0)
		for p, r := range chain {
			op := &e.ops[r]
			missCost := int32(op.costF)
			e.ops[r] = xop{code: opSwitch, k: uint32(ti), aux: uint32(p), jt: cum}
			cum += missCost
		}
	}
}

// chainScratch is collectChain's workspace, reused by every walk of one
// Compile: the chain walked last, and the keys seen, each stamped with the
// walk that saw it, so no walk has to clear what the one before it left.
type chainScratch struct {
	chain []int32
	seen  map[uint32]uint32
	walk  uint32
}

// collectChain walks false-edge links from head while each member is a
// `code` op (and, for load ladders, loads the same offset `off`),
// stopping at duplicate keys so table keys stay unique. The chain it
// returns is sc's, valid until the next walk.
func (e *Exec) collectChain(sc *chainScratch, head int32, code uint8, off uint32) []int32 {
	sc.walk++
	sc.chain = sc.chain[:0]
	for cur := head; ; cur = e.ops[cur].jf {
		op := &e.ops[cur]
		if op.code != code || (code == opLdJeq && op.off != off) || sc.seen[op.k] == sc.walk {
			break
		}
		sc.seen[op.k] = sc.walk
		sc.chain = append(sc.chain, cur)
	}
	return sc.chain
}

// makeTable builds one jumpTable for a chain. member reports a rung's
// (missCost, matchCost, matchTarget, key).
func (e *Exec) makeTable(chain []int32, member func(int32) (uint16, uint16, int32, uint32)) int {
	n := len(chain)
	ents := make([]tableEnt, 0, n)
	keys := make([]uint32, 0, n)
	cum := int32(0)
	var minK, maxK uint32
	for p, r := range chain {
		missCost, matchCost, tgt, key := member(r)
		ents = append(ents, tableEnt{pos: int32(p), tgt: tgt, cost: cum + int32(matchCost)})
		keys = append(keys, key)
		cum += int32(missCost)
		if p == 0 || key < minK {
			minK = key
		}
		if p == 0 || key > maxK {
			maxK = key
		}
	}
	last := &e.ops[chain[n-1]]
	t := jumpTable{cumN: cum, def: last.jf}
	sort.Sort(&tableSorter{keys: keys, ents: ents})
	t.keys, t.ent = keys, ents
	if span := uint64(maxK) - uint64(minK) + 1; span <= denseMaxSpan {
		t.min = minK
		t.dense = make([]int32, span)
		for i, k := range keys {
			t.dense[k-minK] = int32(i) + 1
		}
	}
	e.tables = append(e.tables, t)
	return len(e.tables) - 1
}

// fuseLoads merges a word load from the data buffer with the compare (or
// ladder dispatch) that consumes it. The consumed slots keep their
// original ops, so jumps that land there still behave.
func (e *Exec) fuseLoads() {
	for s := 0; s+1 < len(e.ops); s++ {
		ld := &e.ops[s]
		if ld.code != opLdAbsW {
			continue
		}
		next := &e.ops[s+1]
		switch {
		case next.code == opAndK && s+2 < len(e.ops) && e.ops[s+2].code == opJeqK:
			jeq := &e.ops[s+2]
			e.ops[s] = xop{
				code: opLdAndJeq, off: ld.k, aux: next.k, k: jeq.k,
				costT: 2 + jeq.costT, costF: 2 + jeq.costF, jt: jeq.jt, jf: jeq.jf,
			}
		case next.code == opSwitch:
			e.ops[s] = xop{
				code: opLdSwitch, off: ld.k, k: next.k, aux: next.aux,
				jt: next.jt, costT: 1,
			}
		case next.code == opJeqK:
			e.ops[s] = xop{
				code: opLdJeq, off: ld.k, k: next.k,
				costT: 1 + next.costT, costF: 1 + next.costF, jt: next.jt, jf: next.jf,
			}
		}
	}
}

// buildLoadLadders collapses chains of fused load+compare ops that reload
// the same word — the per-value ladders of argument-set checks, where
// every allowed tuple reloads the argument and compares it — into load
// dispatches. The data buffer cannot change mid-run, so one load decides
// the whole ladder.
func (e *Exec) buildLoadLadders(sc *chainScratch) {
	for s := range e.ops {
		if e.ops[s].code != opLdJeq {
			continue
		}
		chain := e.collectChain(sc, int32(s), opLdJeq, e.ops[s].off)
		if len(chain) < ladderMinLen {
			continue
		}
		off := e.ops[s].off
		ti := e.makeTable(chain, func(r int32) (uint16, uint16, int32, uint32) {
			op := &e.ops[r]
			return op.costF, op.costT, op.jt, op.k
		})
		cum := int32(0)
		for p, r := range chain {
			op := &e.ops[r]
			missCost := int32(op.costF)
			e.ops[r] = xop{code: opLdSwitch, off: off, k: uint32(ti), aux: uint32(p), jt: cum}
			cum += missCost
		}
	}
}

// Run executes the compiled program over data. Results — value, error,
// and the Executed instruction count — are identical to VM.Run on the
// same program and data; the differential fuzz and workload suites pin
// this. Safe for concurrent use: all mutable state is local.
func (e *Exec) Run(data []byte) (Result, error) {
	var scratch [ScratchSlots]uint32
	var a, x uint32
	ops := e.ops
	dlen := uint32(len(data))
	executed := 0
	pc := int32(0)
	for {
		op := &ops[pc]
		switch op.code {
		case opRetK:
			return Result{Value: op.k, Executed: executed + 1}, nil
		case opRetA:
			return Result{Value: a, Executed: executed + 1}, nil

		case opLdImm:
			a = op.k
		case opLdLen:
			a = dlen
		case opLdMem:
			a = scratch[op.k&(ScratchSlots-1)]
		case opLdAbsW:
			if op.aux > dlen || op.aux < op.k {
				return Result{Executed: executed + 1}, ErrOutOfBounds
			}
			a = binary.LittleEndian.Uint32(data[op.k:])
		case opLdAbsH:
			if op.aux > dlen || op.aux < op.k {
				return Result{Executed: executed + 1}, ErrOutOfBounds
			}
			a = uint32(binary.BigEndian.Uint16(data[op.k:]))
		case opLdAbsB:
			if op.aux > dlen || op.aux < op.k {
				return Result{Executed: executed + 1}, ErrOutOfBounds
			}
			a = uint32(data[op.k])
		case opLdIndW:
			off := int64(op.k) + int64(x)
			if off+4 > int64(dlen) {
				return Result{Executed: executed + 1}, ErrOutOfBounds
			}
			a = binary.LittleEndian.Uint32(data[off:])
		case opLdIndH:
			off := int64(op.k) + int64(x)
			if off+2 > int64(dlen) {
				return Result{Executed: executed + 1}, ErrOutOfBounds
			}
			a = uint32(binary.BigEndian.Uint16(data[off:]))
		case opLdIndB:
			off := int64(op.k) + int64(x)
			if off+1 > int64(dlen) {
				return Result{Executed: executed + 1}, ErrOutOfBounds
			}
			a = uint32(data[off])

		case opLdxImm:
			x = op.k
		case opLdxLen:
			x = dlen
		case opLdxMem:
			x = scratch[op.k&(ScratchSlots-1)]
		case opLdxAbsW:
			if op.aux > dlen || op.aux < op.k {
				return Result{Executed: executed + 1}, ErrOutOfBounds
			}
			x = binary.LittleEndian.Uint32(data[op.k:])
		case opLdxAbsH:
			if op.aux > dlen || op.aux < op.k {
				return Result{Executed: executed + 1}, ErrOutOfBounds
			}
			x = uint32(binary.BigEndian.Uint16(data[op.k:]))
		case opLdxAbsB:
			if op.aux > dlen || op.aux < op.k {
				return Result{Executed: executed + 1}, ErrOutOfBounds
			}
			x = uint32(data[op.k])
		case opLdxIndW:
			off := int64(op.k) + int64(x)
			if off+4 > int64(dlen) {
				return Result{Executed: executed + 1}, ErrOutOfBounds
			}
			x = binary.LittleEndian.Uint32(data[off:])
		case opLdxIndH:
			off := int64(op.k) + int64(x)
			if off+2 > int64(dlen) {
				return Result{Executed: executed + 1}, ErrOutOfBounds
			}
			x = uint32(binary.BigEndian.Uint16(data[off:]))
		case opLdxIndB:
			off := int64(op.k) + int64(x)
			if off+1 > int64(dlen) {
				return Result{Executed: executed + 1}, ErrOutOfBounds
			}
			x = uint32(data[off])
		case opLdxMsh:
			if op.k >= dlen {
				return Result{Executed: executed + 1}, ErrOutOfBounds
			}
			x = uint32(data[op.k]&0x0f) * 4

		case opSt:
			scratch[op.k&(ScratchSlots-1)] = a
		case opStx:
			scratch[op.k&(ScratchSlots-1)] = x

		case opAddK:
			a += op.k
		case opSubK:
			a -= op.k
		case opMulK:
			a *= op.k
		case opDivK:
			a /= op.k // K != 0 validated
		case opOrK:
			a |= op.k
		case opAndK:
			a &= op.k
		case opLshK:
			a <<= op.k & 31
		case opRshK:
			a >>= op.k & 31
		case opModK:
			a %= op.k // K != 0 validated
		case opXorK:
			a ^= op.k
		case opNeg:
			a = -a

		case opAddX:
			a += x
		case opSubX:
			a -= x
		case opMulX:
			a *= x
		case opDivX:
			if x == 0 {
				return Result{Executed: executed + 1}, ErrDivByZero
			}
			a /= x
		case opOrX:
			a |= x
		case opAndX:
			a &= x
		case opLshX:
			a <<= x & 31
		case opRshX:
			a >>= x & 31
		case opModX:
			if x == 0 {
				return Result{Executed: executed + 1}, ErrDivByZero
			}
			a %= x
		case opXorX:
			a ^= x

		case opJa:
			executed += int(op.costT)
			pc = op.jt
			continue
		case opJeqK:
			pc = e.branch(op, a == op.k, &executed)
			continue
		case opJgtK:
			pc = e.branch(op, a > op.k, &executed)
			continue
		case opJgeK:
			pc = e.branch(op, a >= op.k, &executed)
			continue
		case opJsetK:
			pc = e.branch(op, a&op.k != 0, &executed)
			continue
		case opJeqX:
			pc = e.branch(op, a == x, &executed)
			continue
		case opJgtX:
			pc = e.branch(op, a > x, &executed)
			continue
		case opJgeX:
			pc = e.branch(op, a >= x, &executed)
			continue
		case opJsetX:
			pc = e.branch(op, a&x != 0, &executed)
			continue

		case opTax:
			x = a
		case opTxa:
			a = x

		case opLdJeq:
			if op.off+4 > dlen || op.off+4 < op.off {
				return Result{Executed: executed + 1}, ErrOutOfBounds
			}
			a = binary.LittleEndian.Uint32(data[op.off:])
			pc = e.branch(op, a == op.k, &executed)
			continue
		case opLdAndJeq:
			if op.off+4 > dlen || op.off+4 < op.off {
				return Result{Executed: executed + 1}, ErrOutOfBounds
			}
			a = binary.LittleEndian.Uint32(data[op.off:]) & op.aux
			pc = e.branch(op, a == op.k, &executed)
			continue
		case opSwitch:
			pc = e.dispatch(op, a, &executed)
			continue
		case opLdSwitch:
			if op.off+4 > dlen || op.off+4 < op.off {
				return Result{Executed: executed + 1}, ErrOutOfBounds
			}
			a = binary.LittleEndian.Uint32(data[op.off:])
			pc = e.dispatch(op, a, &executed)
			continue
		}
		executed++
		pc++
	}
}

// branch charges the chosen edge's cost and returns its target.
func (e *Exec) branch(op *xop, cond bool, executed *int) int32 {
	if cond {
		*executed += int(op.costT)
		return op.jt
	}
	*executed += int(op.costF)
	return op.jf
}

// dispatch resolves a ladder lookup: the matched key (if reachable from
// this entry position) wins with the exact cost of the compares the
// interpreter would have run; otherwise the whole remaining ladder is
// charged and control exits at the fall-out target.
func (e *Exec) dispatch(op *xop, v uint32, executed *int) int32 {
	t := &e.tables[op.k]
	base := op.jt // cumulative ladder cost at this entry
	if ei := t.find(v); ei >= 0 && t.ent[ei].pos >= int32(op.aux) {
		*executed += int(op.costT) + int(t.ent[ei].cost-base)
		return t.ent[ei].tgt
	}
	*executed += int(op.costT) + int(t.cumN-base)
	return t.def
}
