package ebpf

import (
	"fmt"
	"math/bits"
)

// Verified is a program that passed static verification: the only type the
// interpreter accepts, so a rejected program is never executable by
// construction.
//
// The verifier proves two properties before a program is admitted:
//
// Termination. Control flow is forward-only except for OpLoop back edges,
// and every back edge carries a static trip bound enforced by an
// architectural per-site counter at run time. Loop regions must nest
// properly, so the CFG is a DAG of bounded regions; the worst-case
// executed-instruction count is therefore finite and computable:
//
//	cost = Σ_pc (1 + Σ_{loops j whose region contains pc} bound_j)
//
// which the verifier requires ≤ MaxCost. (Each re-execution of a pc must
// consume one trip of some containing loop, since all other flow moves
// strictly forward.)
//
// Memory safety. A dataflow pass tracks, per program point, whether each
// register has been written (register typing: reads of never-written
// registers are rejected) and an unsigned interval [lo, hi] of its possible
// values. Every map access must present a key register whose interval is
// provably below the map's size. Conditional branches refine intervals on
// both edges, so the idiomatic guard (`jlt rK, size, ok`) and the idiomatic
// mask (`and rK, size-1`) both verify. Loop back edges are handled by
// fixpoint iteration with widening to the full interval, so the analysis
// terminates on every input.
type Verified struct {
	prog     Program
	cost     int
	site     []int16 // per-pc loop-site index, -1 unless p[pc] is OpLoop
	numSites int
	usesMaps bool
}

// Cost returns the proven worst-case executed-instruction count.
func (v *Verified) Cost() int { return v.cost }

// validField reports whether sel is a defined OpLdCtx selector.
func validField(sel uint64) bool {
	switch {
	case sel == FieldNr, sel == FieldArch, sel == FieldPayloadLen:
		return true
	case sel >= FieldArg0 && sel < FieldArg0+NumArgs:
		return true
	case sel >= FieldPayload0 && sel < FieldPayload0+NumPayload:
		return true
	}
	return false
}

// interval is an unsigned 64-bit value range.
type interval struct{ lo, hi uint64 }

var topIv = interval{0, ^uint64(0)}

// regState is one register's abstract state.
type regState struct {
	init bool
	iv   interval
}

// flowState is the abstract state at one program point.
type flowState struct {
	reach bool
	regs  [NumRegs]regState
}

// join merges src into dst, returning whether dst changed. When widen is
// set, any register whose interval grew is widened straight to ⊤ so the
// loop fixpoint converges in a bounded number of passes.
func (dst *flowState) join(src *flowState, widen bool) bool {
	if !src.reach {
		return false
	}
	if !dst.reach {
		*dst = *src
		return true
	}
	changed := false
	for i := range dst.regs {
		d, s := &dst.regs[i], &src.regs[i]
		if d.init && !s.init {
			d.init = false
			d.iv = topIv
			changed = true
			continue
		}
		if !d.init {
			continue
		}
		lo, hi := d.iv.lo, d.iv.hi
		if s.iv.lo < lo {
			lo = s.iv.lo
		}
		if s.iv.hi > hi {
			hi = s.iv.hi
		}
		if lo != d.iv.lo || hi != d.iv.hi {
			if widen {
				lo, hi = topIv.lo, topIv.hi
			}
			d.iv = interval{lo, hi}
			changed = true
		}
	}
	return changed
}

// aluInterval computes the result interval of a <sub> b. It must
// over-approximate the concrete alu() in interp.go.
func aluInterval(sub uint8, a, b interval) interval {
	switch sub {
	case AluAdd:
		if sum := a.hi + b.hi; sum >= a.hi { // no wrap
			return interval{a.lo + b.lo, sum}
		}
	case AluSub:
		if a.lo >= b.hi {
			return interval{a.lo - b.hi, a.hi - b.lo}
		}
	case AluMul:
		if hi, _ := bits.Mul64(a.hi, b.hi); hi == 0 {
			return interval{a.lo * b.lo, a.hi * b.hi}
		}
	case AluDiv:
		// Division by zero yields zero, so 0 is always included.
		return interval{0, a.hi}
	case AluMod:
		if b.hi == 0 {
			return interval{0, 0} // divisor always zero → result always zero
		}
		return interval{0, b.hi - 1}
	case AluAnd:
		hi := a.hi
		if b.hi < hi {
			hi = b.hi
		}
		return interval{0, hi}
	case AluOr, AluXor:
		n := bits.Len64(a.hi | b.hi)
		if n < 64 {
			lo := uint64(0)
			if sub == AluOr {
				lo = a.lo
				if b.lo > lo {
					lo = b.lo
				}
			}
			return interval{lo, uint64(1)<<uint(n) - 1}
		}
	case AluLsh:
		if b.lo == b.hi {
			s := uint(b.lo & 63)
			if s == 0 || a.hi>>(64-s) == 0 {
				return interval{a.lo << s, a.hi << s}
			}
		}
	case AluRsh:
		if b.lo == b.hi {
			s := uint(b.lo & 63)
			return interval{a.lo >> s, a.hi >> s}
		}
		return interval{0, a.hi}
	}
	return topIv
}

// refine narrows iv under the assumption "value <cond> k" holds (taken) or
// fails (fallthrough). It returns the refined interval and whether the edge
// is feasible at all.
func refine(cond uint8, iv interval, k uint64, taken bool) (interval, bool) {
	lo, hi := iv.lo, iv.hi
	switch {
	case cond == JEq && taken, cond == JNe && !taken:
		if k < lo || k > hi {
			return iv, false
		}
		return interval{k, k}, true
	case cond == JGt && taken, cond == JLe && !taken: // value > k
		if k == ^uint64(0) {
			return iv, false
		}
		if k+1 > lo {
			lo = k + 1
		}
	case cond == JGe && taken, cond == JLt && !taken: // value >= k
		if k > lo {
			lo = k
		}
	case cond == JLt && taken, cond == JGe && !taken: // value < k
		if k == 0 {
			return iv, false
		}
		if k-1 < hi {
			hi = k - 1
		}
	case cond == JLe && taken, cond == JGt && !taken: // value <= k
		if k < hi {
			hi = k
		}
	default: // JEq/JNe other edge, JSet: no refinement
		return iv, true
	}
	if lo > hi {
		return iv, false
	}
	return interval{lo, hi}, true
}

// ldctxInterval returns the value interval of a ctx field: the 32-bit
// fields are bounded, everything else is ⊤.
func ldctxInterval(sel uint64) interval {
	switch sel {
	case FieldNr, FieldArch, FieldPayloadLen:
		return interval{0, 1<<32 - 1}
	}
	return topIv
}

const maxVerifyPasses = 64
const widenAfterPass = 4

// Verify checks p against specs and returns the verified program. Every
// rejection is an error naming the offending pc.
func Verify(p Program, specs []MapSpec) (*Verified, error) {
	n := len(p)
	if n == 0 {
		return nil, fmt.Errorf("ebpf: empty program")
	}
	if n > MaxInsns {
		return nil, fmt.Errorf("ebpf: %d instructions exceeds the limit of %d", n, MaxInsns)
	}
	if err := ValidateSpecs(specs); err != nil {
		return nil, err
	}
	if p[n-1].Op != OpRet {
		return nil, fmt.Errorf("ebpf: pc %d: program must end in ret", n-1)
	}

	v := &Verified{prog: p, site: make([]int16, n)}
	type loopRegion struct{ start, end, bound int }
	var loops []loopRegion

	// Pass 1: structural validity.
	reg := func(pc int, r uint8) error {
		if r >= NumRegs {
			return fmt.Errorf("ebpf: pc %d: register r%d out of range", pc, r)
		}
		return nil
	}
	for pc := 0; pc < n; pc++ {
		ins := p[pc]
		v.site[pc] = -1
		switch ins.Op {
		case OpMovImm:
			if err := reg(pc, ins.Dst); err != nil {
				return nil, err
			}
		case OpMovReg:
			if err := reg(pc, ins.Dst); err != nil {
				return nil, err
			}
			if err := reg(pc, ins.Src); err != nil {
				return nil, err
			}
		case OpAluImm, OpAluReg:
			if ins.Sub >= numAlu {
				return nil, fmt.Errorf("ebpf: pc %d: unknown alu op %d", pc, ins.Sub)
			}
			if err := reg(pc, ins.Dst); err != nil {
				return nil, err
			}
			if ins.Op == OpAluReg {
				if err := reg(pc, ins.Src); err != nil {
					return nil, err
				}
			}
		case OpLdCtx:
			if err := reg(pc, ins.Dst); err != nil {
				return nil, err
			}
			if !validField(ins.Imm) {
				return nil, fmt.Errorf("ebpf: pc %d: unknown ctx field %d", pc, ins.Imm)
			}
		case OpJmp, OpJImm, OpJReg:
			if ins.Op != OpJmp {
				if ins.Sub >= numJcond {
					return nil, fmt.Errorf("ebpf: pc %d: unknown jump condition %d", pc, ins.Sub)
				}
				if err := reg(pc, ins.Dst); err != nil {
					return nil, err
				}
				if ins.Op == OpJReg {
					if err := reg(pc, ins.Src); err != nil {
						return nil, err
					}
				}
			}
			if ins.Off < 0 {
				return nil, fmt.Errorf("ebpf: pc %d: backward jump (only loop may jump back)", pc)
			}
			if t := pc + 1 + int(ins.Off); t >= n {
				return nil, fmt.Errorf("ebpf: pc %d: jump target %d past end", pc, t)
			}
		case OpMapLd, OpMapAdd:
			if err := reg(pc, ins.Dst); err != nil {
				return nil, err
			}
			if err := reg(pc, ins.Src); err != nil {
				return nil, err
			}
			if ins.Op == OpMapAdd {
				if err := reg(pc, ins.Sub); err != nil {
					return nil, err
				}
			}
			if ins.Imm >= uint64(len(specs)) {
				return nil, fmt.Errorf("ebpf: pc %d: map %d not declared", pc, ins.Imm)
			}
			v.usesMaps = true
		case OpMapSt:
			if err := reg(pc, ins.Src); err != nil {
				return nil, err
			}
			if err := reg(pc, ins.Sub); err != nil { // value register
				return nil, err
			}
			if ins.Imm >= uint64(len(specs)) {
				return nil, fmt.Errorf("ebpf: pc %d: map %d not declared", pc, ins.Imm)
			}
			v.usesMaps = true
		case OpLoop:
			if err := reg(pc, ins.Dst); err != nil {
				return nil, err
			}
			if ins.Off >= 0 {
				return nil, fmt.Errorf("ebpf: pc %d: loop must jump backward", pc)
			}
			t := pc + 1 + int(ins.Off)
			if t < 0 {
				return nil, fmt.Errorf("ebpf: pc %d: loop target %d before start", pc, t)
			}
			if ins.Imm == 0 || ins.Imm > MaxLoopIter {
				return nil, fmt.Errorf("ebpf: pc %d: loop bound %d out of range [1, %d]", pc, ins.Imm, MaxLoopIter)
			}
			if v.numSites >= MaxLoops {
				return nil, fmt.Errorf("ebpf: more than %d loops", MaxLoops)
			}
			v.site[pc] = int16(v.numSites)
			v.numSites++
			loops = append(loops, loopRegion{start: t, end: pc, bound: int(ins.Imm)})
		case OpRet:
			if ins.Sub != RetImm && ins.Sub != RetReg {
				return nil, fmt.Errorf("ebpf: pc %d: unknown ret mode %d", pc, ins.Sub)
			}
			if ins.Sub == RetReg {
				if err := reg(pc, ins.Dst); err != nil {
					return nil, err
				}
			}
		default:
			return nil, fmt.Errorf("ebpf: pc %d: unknown opcode %d", pc, uint8(ins.Op))
		}
	}

	// Pass 2: loop regions must nest properly (DAG of bounded regions).
	for i := 0; i < len(loops); i++ {
		for j := i + 1; j < len(loops); j++ {
			a, b := loops[i], loops[j]
			disjoint := a.end < b.start || b.end < a.start
			nested := (a.start <= b.start && b.end <= a.end) ||
				(b.start <= a.start && a.end <= b.end)
			if !disjoint && !nested {
				return nil, fmt.Errorf("ebpf: loop regions [%d,%d] and [%d,%d] overlap without nesting",
					a.start, a.end, b.start, b.end)
			}
		}
	}

	// Pass 3: worst-case cost. Every re-execution of a pc consumes one trip
	// of a loop whose region contains it, so:
	//   executions(pc) ≤ 1 + Σ_{j ∋ pc} bound_j
	cost := uint64(n)
	for _, l := range loops {
		cost += uint64(l.bound) * uint64(l.end-l.start+1)
		if cost > MaxCost {
			return nil, fmt.Errorf("ebpf: worst-case cost exceeds %d instructions", MaxCost)
		}
	}
	v.cost = int(cost)

	// Pass 4: dataflow fixpoint (register typing + value intervals).
	states := make([]flowState, n)
	states[0].reach = true
	for i := range states[0].regs {
		states[0].regs[i] = regState{init: false, iv: topIv}
	}
	flow := func(widen bool) bool {
		changed := false
		for pc := 0; pc < n; pc++ {
			st := states[pc]
			if !st.reach {
				continue
			}
			ins := p[pc]
			prop := func(target int, out *flowState) {
				// Widening applies only on back edges (loop-head joins are
				// the ones that can creep unboundedly). Forward joins
				// recompute exactly, so a mask or guard placed after a
				// widened loop head re-bounds the interval.
				if states[target].join(out, widen && target <= pc) {
					changed = true
				}
			}
			switch ins.Op {
			case OpMovImm:
				out := st
				out.regs[ins.Dst] = regState{init: true, iv: interval{ins.Imm, ins.Imm}}
				prop(pc+1, &out)
			case OpMovReg:
				out := st
				out.regs[ins.Dst] = out.regs[ins.Src]
				prop(pc+1, &out)
			case OpAluImm:
				out := st
				out.regs[ins.Dst].iv = aluInterval(ins.Sub, st.regs[ins.Dst].iv, interval{ins.Imm, ins.Imm})
				prop(pc+1, &out)
			case OpAluReg:
				out := st
				out.regs[ins.Dst].iv = aluInterval(ins.Sub, st.regs[ins.Dst].iv, st.regs[ins.Src].iv)
				prop(pc+1, &out)
			case OpLdCtx:
				out := st
				out.regs[ins.Dst] = regState{init: true, iv: ldctxInterval(ins.Imm)}
				prop(pc+1, &out)
			case OpJmp:
				out := st
				prop(pc+1+int(ins.Off), &out)
			case OpJImm:
				if iv, ok := refine(ins.Sub, st.regs[ins.Dst].iv, ins.Imm, true); ok {
					out := st
					out.regs[ins.Dst].iv = iv
					prop(pc+1+int(ins.Off), &out)
				}
				if iv, ok := refine(ins.Sub, st.regs[ins.Dst].iv, ins.Imm, false); ok {
					out := st
					out.regs[ins.Dst].iv = iv
					prop(pc+1, &out)
				}
			case OpJReg:
				out := st
				prop(pc+1+int(ins.Off), &out)
				prop(pc+1, &out)
			case OpMapLd, OpMapAdd:
				out := st
				out.regs[ins.Dst] = regState{init: true, iv: topIv}
				prop(pc+1, &out)
			case OpMapSt:
				out := st
				prop(pc+1, &out)
			case OpLoop:
				// Taken: r[Dst] was > 0 and is decremented.
				r := st.regs[ins.Dst]
				if r.iv.hi > 0 {
					out := st
					lo := r.iv.lo
					if lo == 0 {
						lo = 1
					}
					out.regs[ins.Dst].iv = interval{lo - 1, r.iv.hi - 1}
					prop(pc+1+int(ins.Off), &out)
				}
				// Fallthrough: either r[Dst] == 0 or the trip budget is
				// spent, so no refinement is sound.
				out := st
				prop(pc+1, &out)
			case OpRet:
				// No successors.
			}
		}
		return changed
	}
	for pass := 0; ; pass++ {
		if pass > maxVerifyPasses {
			return nil, fmt.Errorf("ebpf: dataflow did not converge")
		}
		if !flow(pass >= widenAfterPass) {
			break
		}
	}

	// Final sweep: check register typing and map bounds against the
	// fixpoint (states only grow, so checking once at the end is complete).
	for pc := 0; pc < n; pc++ {
		st := &states[pc]
		if !st.reach {
			continue
		}
		ins := p[pc]
		need := func(r uint8) error {
			if !st.regs[r].init {
				return fmt.Errorf("ebpf: pc %d: %s reads r%d before it is written", pc, opName(ins.Op), r)
			}
			return nil
		}
		key := func(mi uint64, r uint8) error {
			if err := need(r); err != nil {
				return err
			}
			size := uint64(specs[mi].Size)
			if hi := st.regs[r].iv.hi; hi >= size {
				return fmt.Errorf("ebpf: pc %d: map %q key r%d may reach %d, size is %d (mask or guard the key)",
					pc, specs[mi].Name, r, hi, size)
			}
			return nil
		}
		var err error
		switch ins.Op {
		case OpMovReg:
			err = need(ins.Src)
		case OpAluImm:
			err = need(ins.Dst)
		case OpAluReg:
			if err = need(ins.Dst); err == nil {
				err = need(ins.Src)
			}
		case OpJImm:
			err = need(ins.Dst)
		case OpJReg:
			if err = need(ins.Dst); err == nil {
				err = need(ins.Src)
			}
		case OpMapLd:
			err = key(ins.Imm, ins.Src)
		case OpMapSt:
			if err = key(ins.Imm, ins.Src); err == nil {
				err = need(ins.Sub)
			}
		case OpMapAdd:
			if err = key(ins.Imm, ins.Src); err == nil {
				err = need(ins.Sub)
			}
		case OpLoop:
			err = need(ins.Dst)
		case OpRet:
			if ins.Sub == RetReg {
				err = need(ins.Dst)
			}
		}
		if err != nil {
			return nil, err
		}
	}
	return v, nil
}
