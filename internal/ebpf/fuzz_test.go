package ebpf

import (
	"encoding/binary"
	"testing"
)

// fuzzSpecs is the fixed map universe fuzz inputs are verified against, so
// mutated programs can reach the map opcodes.
var fuzzSpecs = []MapSpec{{Name: "a", Size: 8}, {Name: "b", Size: 64}}

// FuzzVerifyAndRun decodes arbitrary bytes as programmable-policy
// instructions and checks the verifier's contract differentially:
//
//   - Accepted programs run to completion on adversarial inputs without
//     faulting, with Executed bounded by the proven worst-case cost, and
//     every constant the classifier extracts matches the run's action.
//   - Rejected programs are never executable: NewVM refuses them, so there
//     is no path from a rejected byte string to a running program.
func FuzzVerifyAndRun(f *testing.F) {
	for _, s := range [][]string{rateLimitText, openBeforeReadText} {
		if p, err := Assemble(s, fuzzSpecs); err == nil {
			f.Add(encodeProg(p), uint32(2), uint64(0), uint64(0))
		}
	}
	// A bounded-loop seed so mutation explores back edges and trip budgets.
	loop := Program{
		{Op: OpMovImm, Dst: 1, Imm: 7},
		{Op: OpMovImm, Dst: 2, Imm: 0},
		{Op: OpAluImm, Sub: AluAnd, Dst: 2, Imm: 7},
		{Op: OpMapAdd, Dst: 3, Src: 2, Sub: 4, Imm: 0},
		{Op: OpAluImm, Sub: AluAdd, Dst: 2, Imm: 1},
		{Op: OpLoop, Dst: 1, Imm: 7, Off: -4},
		{Op: OpRet, Sub: RetImm, Imm: uint64(RetAllow)},
	}
	f.Add(encodeProg(loop), uint32(0), uint64(3), uint64(1<<40))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, uint32(1), uint64(2), uint64(3))
	f.Fuzz(func(t *testing.T, progBytes []byte, nr uint32, a0, a1 uint64) {
		p := decodeProg(progBytes)
		if len(p) == 0 {
			return
		}
		v, err := Verify(p, fuzzSpecs)
		if err != nil {
			// Rejected programs must not be constructible into a VM.
			if _, vmErr := NewVM(p, fuzzSpecs); vmErr == nil {
				t.Fatalf("rejected program accepted by NewVM (verify: %v)", err)
			}
			return
		}
		ctx := Ctx{Nr: nr, Arch: AuditArchX8664, Args: [NumArgs]uint64{a0, a1, a0 ^ a1}, PayloadLen: 2}
		ctx.Payload[0] = a0
		ctx.Payload[1] = ^a1
		ms := NewMapSet(fuzzSpecs)
		// Pre-seed state so map loads see nonzero values.
		ms.Store(0, a0&7, a1)

		r, err := v.NewVM().Run(&ctx, ms)
		if err != nil {
			t.Fatalf("verified program faulted: %v", err)
		}
		if r.Executed > v.Cost() {
			t.Fatalf("executed %d exceeds proven cost %d", r.Executed, v.Cost())
		}
		// The classifier's constant tier must agree with real execution.
		cls := Classify(v)
		if act, ok := cls.ConstAction(int32(nr)); ok && act != r.Action {
			t.Fatalf("nr %d extracted %#x but execution returned %#x", nr, act, r.Action)
		}
	})
}

// encodeProg/decodeProg use a fixed 16-byte little-endian layout per
// instruction: op, sub, dst, src, off (int16), pad, imm (uint64).
func encodeProg(p Program) []byte {
	out := make([]byte, 0, len(p)*16)
	for _, ins := range p {
		var b [16]byte
		b[0] = uint8(ins.Op)
		b[1] = ins.Sub
		b[2] = ins.Dst
		b[3] = ins.Src
		binary.LittleEndian.PutUint16(b[4:], uint16(ins.Off))
		binary.LittleEndian.PutUint64(b[8:], ins.Imm)
		out = append(out, b[:]...)
	}
	return out
}

func decodeProg(b []byte) Program {
	n := len(b) / 16
	if n > 256 {
		n = 256
	}
	p := make(Program, 0, n)
	for i := 0; i < n; i++ {
		p = append(p, Instruction{
			Op:  Op(b[i*16]),
			Sub: b[i*16+1],
			Dst: b[i*16+2],
			Src: b[i*16+3],
			Off: int16(binary.LittleEndian.Uint16(b[i*16+4:])),
			Imm: binary.LittleEndian.Uint64(b[i*16+8:]),
		})
	}
	return p
}

func TestProgEncodeDecodeRoundtrip(t *testing.T) {
	p := Program{
		{Op: OpLdCtx, Dst: 1, Imm: FieldNr},
		{Op: OpJImm, Sub: JEq, Dst: 1, Imm: 42, Off: 1},
		{Op: OpRet, Sub: RetImm, Imm: uint64(RetAllow)},
		{Op: OpLoop, Dst: 1, Imm: 3, Off: -2},
		{Op: OpRet, Sub: RetImm, Imm: uint64(RetErrno(1))},
	}
	back := decodeProg(encodeProg(p))
	if len(back) != len(p) {
		t.Fatalf("length %d != %d", len(back), len(p))
	}
	for i := range p {
		if p[i] != back[i] {
			t.Fatalf("instruction %d: %+v != %+v", i, p[i], back[i])
		}
	}
}
