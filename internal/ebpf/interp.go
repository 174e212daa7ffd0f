package ebpf

// VM interprets a verified program. It is the tier's only executor: every
// attached policy runs here, and the Executed count it reports is what the
// cost model charges and what Verified.Cost bounds.
type VM struct {
	v *Verified
}

// NewVM verifies p against specs and returns an interpreter for it. This
// is the only way to obtain a VM, so rejected programs cannot run.
func NewVM(p Program, specs []MapSpec) (*VM, error) {
	v, err := Verify(p, specs)
	if err != nil {
		return nil, err
	}
	return v.NewVM(), nil
}

// NewVM returns an interpreter for the verified program.
func (v *Verified) NewVM() *VM { return &VM{v: v} }

// alu applies one 64-bit ALU operation. Division and modulus by zero yield
// zero and shifts are masked, so no operation faults.
func alu(sub uint8, a, b uint64) uint64 {
	switch sub {
	case AluAdd:
		return a + b
	case AluSub:
		return a - b
	case AluMul:
		return a * b
	case AluDiv:
		if b == 0 {
			return 0
		}
		return a / b
	case AluMod:
		if b == 0 {
			return 0
		}
		return a % b
	case AluAnd:
		return a & b
	case AluOr:
		return a | b
	case AluXor:
		return a ^ b
	case AluLsh:
		return a << (b & 63)
	default: // AluRsh
		return a >> (b & 63)
	}
}

// jcond evaluates one jump condition.
func jcond(sub uint8, a, b uint64) bool {
	switch sub {
	case JEq:
		return a == b
	case JNe:
		return a != b
	case JGt:
		return a > b
	case JGe:
		return a >= b
	case JLt:
		return a < b
	case JLe:
		return a <= b
	default: // JSet
		return a&b != 0
	}
}

// Run executes the program against ctx and the per-tenant map state. All
// run state — the register file and the per-site trip counters — lives on
// the stack, so Run performs no allocation. ms may be nil only for
// programs that use no maps. Registers start at zero.
//
// Run cannot fault: ctx loads and map accesses are total functions, the
// ALU is total, and the verifier bounds control flow. The dynamic budget
// check is a backstop that turns a verifier bug into an error instead of a
// hang; it is unreachable for verified programs.
func (vm *VM) Run(ctx *Ctx, ms *MapSet) (Result, error) {
	prog := vm.v.prog
	if vm.v.usesMaps && ms == nil {
		return Result{}, errNoMaps
	}
	var r [NumRegs]uint64
	var trips [MaxLoops]uint32
	pc, executed := 0, 0
	for {
		if executed >= vm.v.cost {
			// Unreachable for verified programs; see the budget note above.
			return Result{}, errBudget(vm.v.cost)
		}
		ins := &prog[pc]
		executed++
		switch ins.Op {
		case OpMovImm:
			r[ins.Dst] = ins.Imm
			pc++
		case OpMovReg:
			r[ins.Dst] = r[ins.Src]
			pc++
		case OpAluImm:
			r[ins.Dst] = alu(ins.Sub, r[ins.Dst], ins.Imm)
			pc++
		case OpAluReg:
			r[ins.Dst] = alu(ins.Sub, r[ins.Dst], r[ins.Src])
			pc++
		case OpLdCtx:
			r[ins.Dst] = ctx.Field(ins.Imm)
			pc++
		case OpJmp:
			pc += 1 + int(ins.Off)
		case OpJImm:
			if jcond(ins.Sub, r[ins.Dst], ins.Imm) {
				pc += 1 + int(ins.Off)
			} else {
				pc++
			}
		case OpJReg:
			if jcond(ins.Sub, r[ins.Dst], r[ins.Src]) {
				pc += 1 + int(ins.Off)
			} else {
				pc++
			}
		case OpMapLd:
			r[ins.Dst] = ms.Load(int(ins.Imm), r[ins.Src])
			pc++
		case OpMapSt:
			ms.Store(int(ins.Imm), r[ins.Src], r[ins.Sub])
			pc++
		case OpMapAdd:
			r[ins.Dst] = ms.AddFetch(int(ins.Imm), r[ins.Src], r[ins.Sub])
			pc++
		case OpLoop:
			s := vm.v.site[pc]
			if trips[s] < uint32(ins.Imm) && r[ins.Dst] > 0 {
				trips[s]++
				r[ins.Dst]--
				pc += 1 + int(ins.Off)
			} else {
				pc++
			}
		case OpRet:
			v := ins.Imm
			if ins.Sub == RetReg {
				v = r[ins.Dst]
			}
			return Result{Action: CanonAction(v), Executed: executed}, nil
		}
	}
}
