// Package ebpf implements the programmable policy tier: an eBPF-flavored
// register VM for stateful, relational system call policies that the
// whitelist model (internal/seccomp) cannot express — rate limits,
// open-before-read sequencing, init→serve phase tightening.
//
// The design follows "Programmable System Call Security with eBPF"
// (PAPERS.md): policies are small register programs with access to
// per-tenant maps (state shared across calls), bounded loops, and a rich
// view of the call (an extended seccomp_data that models deep-argument /
// pointer-payload inspection). Before a program may run it must pass a
// static verifier (verify.go) that proves termination and memory safety;
// verified programs run on one interpreter (interp.go), and a bitmap-style
// abstract interpreter (classify.go) extracts the syscalls whose outcome is
// a map-independent constant so they keep the Executed==0 fast path.
//
// The package is self-contained (stdlib only): internal/seccomp imports it
// to carry a program alongside a whitelist profile, never the other way
// around.
package ebpf

import (
	"errors"
	"fmt"
)

// errNoMaps reports a run against a map-using program with no map state.
var errNoMaps = errors.New("ebpf: program uses maps but no map state was attached")

// errBudget reports a dynamic cost-bound violation (unreachable for
// verified programs; the runtime backstop for a verifier bug).
func errBudget(cost int) error {
	return fmt.Errorf("ebpf: execution exceeded the verified cost bound %d", cost)
}

// Architectural limits. The verifier enforces all of them; the runtime
// sizes its fixed stack state (trip counters, register file) from them.
const (
	// NumRegs is the register file size: r0..r10, each 64 bits wide.
	NumRegs = 11
	// MaxInsns bounds program length.
	MaxInsns = 4096
	// MaxMaps bounds the number of maps a program may declare.
	MaxMaps = 8
	// MaxMapSize bounds one map's slot count.
	MaxMapSize = 1 << 16
	// MaxLoops bounds the number of loop sites (OpLoop instructions); the
	// runtime keeps one architectural trip counter per site.
	MaxLoops = 8
	// MaxLoopIter bounds one loop site's static trip bound.
	MaxLoopIter = 1 << 16
	// MaxCost bounds the verifier-computed worst-case executed-instruction
	// count; Run enforces it dynamically as a belt-and-braces budget.
	MaxCost = 1 << 20
	// MaxNr is the exclusive syscall-number bound for per-nr classification,
	// matching seccomp.BitmapMaxNr (Linux's bitmap covers the same range).
	MaxNr = 512
)

// Ctx geometry.
const (
	// NumArgs is the syscall argument count (mirrors seccomp_data).
	NumArgs = 6
	// NumPayload is the number of modeled pointer-payload words.
	NumPayload = 8
)

// Op is an instruction opcode.
type Op uint8

const (
	// OpMovImm: r[Dst] = Imm.
	OpMovImm Op = iota
	// OpMovReg: r[Dst] = r[Src].
	OpMovReg
	// OpAluImm: r[Dst] = r[Dst] <Sub> Imm.
	OpAluImm
	// OpAluReg: r[Dst] = r[Dst] <Sub> r[Src].
	OpAluReg
	// OpLdCtx: r[Dst] = ctx field selected by Imm (Field*).
	OpLdCtx
	// OpJmp: unconditional forward jump to pc+1+Off.
	OpJmp
	// OpJImm: if r[Dst] <Sub> Imm, jump forward to pc+1+Off.
	OpJImm
	// OpJReg: if r[Dst] <Sub> r[Src], jump forward to pc+1+Off.
	OpJReg
	// OpMapLd: r[Dst] = maps[Imm][r[Src]].
	OpMapLd
	// OpMapSt: maps[Imm][r[Src]] = r[Sub] (Sub names the value register).
	OpMapSt
	// OpMapAdd: r[Dst] = atomic add-and-fetch of r[Sub] into
	// maps[Imm][r[Src]] — the one-instruction rate-limit primitive.
	OpMapAdd
	// OpLoop: bounded back edge. If the site's trip counter is below the
	// static bound Imm and r[Dst] > 0: count a trip, decrement r[Dst], and
	// jump back to pc+1+Off (Off < 0). Otherwise fall through. Each site's
	// counter spans the whole run, so Imm bounds its back edges outright.
	OpLoop
	// OpRet: return Imm (Sub==RetImm) or r[Dst] (Sub==RetReg) as the
	// action word.
	OpRet

	numOps
)

// ALU sub-operations (Instruction.Sub for OpAluImm/OpAluReg). All 64-bit
// unsigned; division and modulus by zero yield zero (eBPF semantics) and
// shift amounts are masked to six bits, so no ALU op can fault.
const (
	AluAdd uint8 = iota
	AluSub
	AluMul
	AluDiv
	AluMod
	AluAnd
	AluOr
	AluXor
	AluLsh
	AluRsh

	numAlu
)

// Jump conditions (Instruction.Sub for OpJImm/OpJReg), unsigned 64-bit.
const (
	JEq uint8 = iota
	JNe
	JGt
	JGe
	JLt
	JLe
	JSet

	numJcond
)

// Return sub-operations (Instruction.Sub for OpRet).
const (
	RetImm uint8 = iota
	RetReg
)

// Ctx field selectors (Instruction.Imm for OpLdCtx).
const (
	// FieldNr loads the syscall number.
	FieldNr = 0
	// FieldArch loads the architecture token.
	FieldArch = 1
	// FieldPayloadLen loads the captured payload length in words.
	FieldPayloadLen = 2
	// FieldArg0..FieldArg0+5 load the raw 64-bit argument registers.
	FieldArg0 = 8
	// FieldPayload0..FieldPayload0+7 load modeled pointer-payload words;
	// words at or beyond PayloadLen read as zero (never a fault).
	FieldPayload0 = 16
)

// Instruction is one VM instruction. The fixed shape (no variable-length
// encodings) keeps the verifier's control-flow reasoning trivial.
type Instruction struct {
	// Op is the opcode.
	Op Op
	// Sub selects the ALU op, jump condition, return mode, or — for map
	// stores and add-and-fetch — the value register.
	Sub uint8
	// Dst is the destination register.
	Dst uint8
	// Src is the source register (key register for map ops).
	Src uint8
	// Off is the relative jump displacement: target = pc + 1 + Off.
	Off int16
	// Imm is the 64-bit immediate: a value, a ctx field selector, a map
	// index, or a loop bound, depending on Op.
	Imm uint64
}

// Program is an instruction sequence.
type Program []Instruction

// Ctx is the extended seccomp_data view a program inspects: the classic
// (nr, arch, args) triple plus a modeled pointer-payload window — the
// deep-argument inspection tier that kernel seccomp cannot offer because it
// must not dereference user pointers (TOCTOU), but a verified in-kernel
// program operating on a snapshotted payload can.
type Ctx struct {
	// Nr is the system call number.
	Nr uint32
	// Arch is the architecture token.
	Arch uint32
	// Args are the six raw argument registers.
	Args [NumArgs]uint64
	// Payload holds up to NumPayload snapshotted payload words.
	Payload [NumPayload]uint64
	// PayloadLen is the number of valid Payload words.
	PayloadLen uint32
}

// Field returns the ctx field selected by an OpLdCtx immediate. Unknown
// selectors and out-of-range payload words read as zero — loads never
// fault, which the verifier's safety argument relies on.
func (c *Ctx) Field(sel uint64) uint64 {
	switch {
	case sel == FieldNr:
		return uint64(c.Nr)
	case sel == FieldArch:
		return uint64(c.Arch)
	case sel == FieldPayloadLen:
		return uint64(c.PayloadLen)
	case sel >= FieldArg0 && sel < FieldArg0+NumArgs:
		return c.Args[sel-FieldArg0]
	case sel >= FieldPayload0 && sel < FieldPayload0+NumPayload:
		i := sel - FieldPayload0
		if i >= uint64(c.PayloadLen) {
			return 0
		}
		return c.Payload[i]
	}
	return 0
}

// AuditArchX8664 duplicates seccomp.AuditArchX8664 so this package stays
// dependency-free.
const AuditArchX8664 = 0xC000003E

// Result is one program execution's outcome.
type Result struct {
	// Action is the canonicalized seccomp action word.
	Action uint32
	// Executed is the number of instructions executed.
	Executed int
}

// Action words, mirroring the kernel SECCOMP_RET_* constants (duplicated
// from internal/seccomp to keep the import direction seccomp → ebpf).
const (
	RetKillProcess uint32 = 0x80000000
	RetKillThread  uint32 = 0x00000000
	RetTrap        uint32 = 0x00030000
	RetErrnoBase   uint32 = 0x00050000
	RetLog         uint32 = 0x7ffc0000
	RetAllow       uint32 = 0x7fff0000

	retActionMask uint32 = 0xffff0000
	retDataMask   uint32 = 0x0000ffff
)

// RetErrno returns the action word denying the call with errno e.
func RetErrno(e uint16) uint32 { return RetErrnoBase | uint32(e) }

// CanonAction canonicalizes a raw 64-bit return word to a known seccomp
// action. Unknown action classes collapse to kill-process: the seccomp
// layer treats unrecognized actions as *least* restrictive when combining
// (kernel filters can't emit them), so a programmable policy returning
// garbage must be forced to the most restrictive class, not the weakest.
func CanonAction(v uint64) uint32 {
	w := uint32(v)
	switch w & retActionMask {
	case RetKillProcess, RetKillThread & retActionMask, RetTrap, RetErrnoBase, RetLog, RetAllow:
		return w
	}
	return RetKillProcess
}

// Allows reports whether an action word permits the call.
func Allows(action uint32) bool { return action&retActionMask == RetAllow }

// opName names an opcode for diagnostics.
func opName(op Op) string {
	switch op {
	case OpMovImm, OpMovReg:
		return "mov"
	case OpAluImm, OpAluReg:
		return "alu"
	case OpLdCtx:
		return "ldctx"
	case OpJmp:
		return "jmp"
	case OpJImm, OpJReg:
		return "jcond"
	case OpMapLd:
		return "mld"
	case OpMapSt:
		return "mst"
	case OpMapAdd:
		return "madd"
	case OpLoop:
		return "loop"
	case OpRet:
		return "ret"
	}
	return fmt.Sprintf("op%d", uint8(op))
}
