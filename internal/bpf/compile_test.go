package bpf

import (
	"errors"
	"math/rand"
	"testing"
)

// runBoth executes prog over data through the interpreter and the compiled
// tier and fails unless value, error, and Executed all match.
func runBoth(t *testing.T, prog Program, data []byte) (Result, error) {
	t.Helper()
	vm, err := NewVM(prog)
	if err != nil {
		t.Fatalf("NewVM: %v", err)
	}
	ex, err := Compile(prog)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	want, wantErr := vm.Run(data)
	got, gotErr := ex.Run(data)
	if !errors.Is(gotErr, wantErr) || (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("error mismatch: interp %v, compiled %v", wantErr, gotErr)
	}
	if got != want {
		t.Fatalf("result mismatch: interp %+v, compiled %+v (err %v)", want, got, wantErr)
	}
	return want, wantErr
}

// seccompData builds a 64-byte seccomp_data-shaped buffer: nr and arch
// words followed by ip and six 64-bit args.
func seccompData(nr uint32, arch uint32, args ...uint64) []byte {
	buf := make([]byte, 64)
	putW := func(off int, v uint32) {
		buf[off] = byte(v)
		buf[off+1] = byte(v >> 8)
		buf[off+2] = byte(v >> 16)
		buf[off+3] = byte(v >> 24)
	}
	putW(0, nr)
	putW(4, arch)
	for i, a := range args {
		putW(16+8*i, uint32(a))
		putW(16+8*i+4, uint32(a>>32))
	}
	return buf
}

// ladderProgram builds the linear-dispatch shape the seccomp compiler
// emits: arch check, then a jeq ladder over nrs, each body returning a
// distinct value, with an optional ja trampoline after each body.
func ladderProgram(nrs []uint32, trampoline bool) Program {
	p := Program{
		Stmt(ClassLD|SizeW|ModeABS, 4),
		Jump(ClassJMP|JmpJEQ|SrcK, 0xC000003E, 1, 0),
		Stmt(ClassRET|SrcK, 0),
		Stmt(ClassLD|SizeW|ModeABS, 0),
	}
	for i, nr := range nrs {
		body := Program{Stmt(ClassRET|SrcK, 0x1000+uint32(i))}
		if trampoline {
			// jeq falls into a ja that hops over the body on miss.
			p = append(p, Jump(ClassJMP|JmpJEQ|SrcK, nr, 1, 0))
			p = append(p, Jump(ClassJMP|JmpJA, uint32(len(body)), 0, 0))
		} else {
			p = append(p, Jump(ClassJMP|JmpJEQ|SrcK, nr, 0, uint8(len(body))))
		}
		p = append(p, body...)
	}
	p = append(p, Stmt(ClassRET|SrcK, 7))
	return p
}

func TestCompiledLadderDifferential(t *testing.T) {
	nrs := []uint32{0, 1, 3, 9, 41, 42, 57, 59, 60, 231, 257, 302}
	for _, tramp := range []bool{false, true} {
		prog := ladderProgram(nrs, tramp)
		ex, err := Compile(prog)
		if err != nil {
			t.Fatal(err)
		}
		if ex.Tables() == 0 {
			t.Fatalf("trampoline=%v: expected ladder table, got none", tramp)
		}
		for nr := uint32(0); nr < 400; nr++ {
			runBoth(t, prog, seccompData(nr, 0xC000003E))
		}
		// Wrong arch takes the kill edge before the ladder.
		runBoth(t, prog, seccompData(1, 0xDEAD))
	}
}

// TestCompiledLadderEntryMidChain jumps into the middle of a collapsed
// ladder: keys before the entry position must not match, and the charged
// Executed must cover only the compares actually reachable from there.
func TestCompiledLadderEntryMidChain(t *testing.T) {
	// jset picks an entry point: taken edge hops over the first two rungs.
	prog := Program{
		Stmt(ClassLD|SizeW|ModeABS, 0),
		Jump(ClassJMP|JmpJSET|SrcK, 0x8000_0000, 2, 0),
		Jump(ClassJMP|JmpJEQ|SrcK, 5, 5, 0), // rung 0
		Jump(ClassJMP|JmpJEQ|SrcK, 6, 4, 0), // rung 1
		Jump(ClassJMP|JmpJEQ|SrcK, 7, 3, 0), // rung 2 (mid-chain entry)
		Jump(ClassJMP|JmpJEQ|SrcK, 8, 2, 0), // rung 3
		Jump(ClassJMP|JmpJEQ|SrcK, 9, 1, 0), // rung 4
		Stmt(ClassRET|SrcK, 0xAA),           // fall-out
		Stmt(ClassRET|SrcK, 0xBB),           // match target
	}
	for _, v := range []uint32{4, 5, 6, 7, 8, 9, 10, 5 | 0x8000_0000, 7 | 0x8000_0000, 9 | 0x8000_0000} {
		runBoth(t, prog, seccompData(v, 0))
	}
}

// TestCompiledArgSetDifferential exercises the load-fused ladder: per-value
// reload-and-compare chains over an argument word, as argument-set checks
// emit, plus masked (ld+and+jeq) conditions.
func TestCompiledArgSetDifferential(t *testing.T) {
	var p Program
	p = append(p, Stmt(ClassLD|SizeW|ModeABS, 0))
	p = append(p, Jump(ClassJMP|JmpJEQ|SrcK, 42, 0, 14))
	// Allowed arg0 low-word values: 10, 20, 30, 40, 50; each pair reloads
	// the argument word and on match jumps to the masked check at index 12
	// (the final pair's miss edge exits to the deny RET at index 16).
	vals := []uint32{10, 20, 30, 40, 50}
	for i, v := range vals {
		jeqIdx := uint32(3 + 2*i)
		jf := uint8(0)
		if i == len(vals)-1 {
			jf = uint8(16 - (jeqIdx + 1))
		}
		p = append(p, Stmt(ClassLD|SizeW|ModeABS, 16))
		p = append(p, Jump(ClassJMP|JmpJEQ|SrcK, v, uint8(12-(jeqIdx+1)), jf))
	}
	// Masked condition: arg1 & 0xff == 3.
	p = append(p, Stmt(ClassLD|SizeW|ModeABS, 24))
	p = append(p, Stmt(ClassALU|ALUAnd|SrcK, 0xff))
	p = append(p, Jump(ClassJMP|JmpJEQ|SrcK, 3, 0, 1))
	p = append(p, Stmt(ClassRET|SrcK, 0x7fff0000))
	p = append(p, Stmt(ClassRET|SrcK, 0))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	ex, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Tables() == 0 {
		t.Fatal("expected a load-ladder table")
	}
	for _, nr := range []uint32{41, 42} {
		for _, a0 := range []uint64{0, 10, 15, 20, 30, 40, 50, 60, 10 << 32} {
			for _, a1 := range []uint64{0, 3, 0x103, 0xff} {
				runBoth(t, p, seccompData(nr, 0, a0, a1))
			}
		}
	}
}

func TestCompiledFaultsAndEdgeOps(t *testing.T) {
	cases := []struct {
		name string
		prog Program
		data []byte
	}{
		{"oob-abs", Program{Stmt(ClassLD|SizeW|ModeABS, 61), Stmt(ClassRET|SrcK, 1)}, seccompData(0, 0)},
		{"oob-abs-overflow", Program{Stmt(ClassLD|SizeW|ModeABS, 0xFFFFFFFF), Stmt(ClassRET|SrcK, 1)}, seccompData(0, 0)},
		{"oob-fused", Program{Stmt(ClassLD|SizeW|ModeABS, 61), Jump(ClassJMP|JmpJEQ|SrcK, 1, 0, 0), Stmt(ClassRET|SrcK, 1)}, seccompData(0, 0)},
		{"oob-ind", Program{Stmt(ClassLDX|ModeIMM, 100), Stmt(ClassLD|SizeW|ModeIND, 0), Stmt(ClassRET|SrcK, 1)}, seccompData(0, 0)},
		{"msh", Program{Stmt(ClassLDX|ModeMSH, 3), Stmt(ClassMISC|MiscTXA, 0), Stmt(ClassRET|0x10, 0)}, seccompData(0x0f000000, 0)},
		{"msh-oob", Program{Stmt(ClassLDX|ModeMSH, 99), Stmt(ClassRET|SrcK, 1)}, seccompData(0, 0)},
		{"div-x-zero", Program{Stmt(ClassLDX|ModeIMM, 0), Stmt(ClassALU|ALUDiv|SrcX, 0), Stmt(ClassRET|SrcK, 1)}, seccompData(0, 0)},
		{"mod-x-zero", Program{Stmt(ClassLDX|ModeIMM, 0), Stmt(ClassALU|ALUMod|SrcX, 0), Stmt(ClassRET|SrcK, 1)}, seccompData(0, 0)},
		{"scratch", Program{
			Stmt(ClassLD|ModeIMM, 77), Stmt(ClassST, 5), Stmt(ClassLD|ModeIMM, 0),
			Stmt(ClassLDX|ModeMEM, 5), Stmt(ClassMISC|MiscTXA, 0), Stmt(ClassRET|0x10, 0),
		}, seccompData(0, 0)},
		{"len-halfbyte", Program{
			Stmt(ClassLD|ModeLEN, 0), Stmt(ClassLDX|ModeLEN, 0),
			Stmt(ClassLD|SizeH|ModeABS, 0), Stmt(ClassALU|ALUAdd|SrcX, 0),
			Stmt(ClassLD|SizeB|ModeABS, 2), Stmt(ClassRET|0x10, 0),
		}, seccompData(0x01020304, 0)},
		{"alu-sweep", Program{
			Stmt(ClassLD|SizeW|ModeABS, 0), Stmt(ClassALU|ALUAdd|SrcK, 3),
			Stmt(ClassALU|ALUMul|SrcK, 7), Stmt(ClassALU|ALUXor|SrcK, 0x55aa),
			Stmt(ClassALU|ALULsh|SrcK, 33), Stmt(ClassALU|ALURsh|SrcK, 2),
			Stmt(ClassALU|ALUDiv|SrcK, 3), Stmt(ClassALU|ALUMod|SrcK, 1000),
			Stmt(ClassALU|ALUSub|SrcK, 5), Stmt(ClassALU|ALUOr|SrcK, 0x100),
			Stmt(ClassALU|ALUNeg, 0), Stmt(ClassRET|0x10, 0),
		}, seccompData(0xDEADBEEF, 0)},
		{"jump-into-fused-tail", Program{
			// jset hops straight to the jeq of an ld+jeq pair, so the
			// kept original in the shadowed slot must still run.
			Stmt(ClassLD|SizeW|ModeABS, 0),
			Jump(ClassJMP|JmpJSET|SrcK, 1, 1, 0),
			Stmt(ClassLD|SizeW|ModeABS, 4),
			Jump(ClassJMP|JmpJEQ|SrcK, 9, 0, 1),
			Stmt(ClassRET|SrcK, 0x11),
			Stmt(ClassRET|SrcK, 0x22),
		}, seccompData(9, 9)},
		{"empty-data", Program{Stmt(ClassLD|ModeLEN, 0), Stmt(ClassRET|0x10, 0)}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runBoth(t, tc.prog, tc.data)
		})
	}
}

// TestCompiledRandomDifferential fuzzes structurally: random (validated)
// programs over random buffers, interp vs compiled, value/error/Executed.
func TestCompiledRandomDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(0xD12AC0))
	ops := []uint16{
		ClassLD | ModeIMM, ClassLD | ModeLEN, ClassLD | ModeMEM,
		ClassLD | SizeW | ModeABS, ClassLD | SizeH | ModeABS, ClassLD | SizeB | ModeABS,
		ClassLD | SizeW | ModeIND, ClassLDX | ModeIMM, ClassLDX | ModeMEM,
		ClassLDX | SizeW | ModeABS, ClassLDX | ModeMSH,
		ClassST, ClassSTX,
		ClassALU | ALUAdd | SrcK, ClassALU | ALUSub | SrcX, ClassALU | ALUMul | SrcK,
		ClassALU | ALUDiv | SrcK, ClassALU | ALUAnd | SrcK, ClassALU | ALUOr | SrcX,
		ClassALU | ALUXor | SrcK, ClassALU | ALULsh | SrcK, ClassALU | ALURsh | SrcX,
		ClassALU | ALUMod | SrcK, ClassALU | ALUNeg,
		ClassJMP | JmpJA, ClassJMP | JmpJEQ | SrcK, ClassJMP | JmpJEQ | SrcX,
		ClassJMP | JmpJGT | SrcK, ClassJMP | JmpJGE | SrcK, ClassJMP | JmpJSET | SrcK,
		ClassRET | SrcK, ClassRET | 0x10,
		ClassMISC | MiscTAX, ClassMISC | MiscTXA,
	}
	valid := 0
	for iter := 0; iter < 4000; iter++ {
		n := 2 + rng.Intn(40)
		p := make(Program, n)
		for i := range p {
			op := ops[rng.Intn(len(ops))]
			ins := Instruction{Op: op, K: uint32(rng.Intn(80))}
			if rng.Intn(8) == 0 {
				ins.K = rng.Uint32()
			}
			if op&0x07 == ClassJMP {
				ins.Jt = uint8(rng.Intn(8))
				ins.Jf = uint8(rng.Intn(8))
				ins.K = uint32(rng.Intn(8))
			}
			p[i] = ins
		}
		p[n-1] = Stmt(ClassRET|SrcK, uint32(rng.Intn(4)))
		if p.Validate() != nil {
			continue
		}
		valid++
		data := make([]byte, rng.Intn(70))
		rng.Read(data)
		runBoth(t, p, data)
	}
	if valid < 200 {
		t.Fatalf("only %d valid random programs; generator too strict", valid)
	}
}

func TestCompileRejectsInvalid(t *testing.T) {
	if _, err := Compile(Program{}); err == nil {
		t.Fatal("Compile accepted an empty program")
	}
	if _, err := Compile(Program{Stmt(ClassLD|ModeIMM, 0)}); err == nil {
		t.Fatal("Compile accepted a program without a terminal RET")
	}
	if _, err := Compile(Program{Jump(ClassJMP|JmpJEQ|SrcK, 0, 9, 9), Stmt(ClassRET|SrcK, 0)}); err == nil {
		t.Fatal("Compile accepted an out-of-range jump")
	}
}

func TestExecLen(t *testing.T) {
	p := ladderProgram([]uint32{1, 2, 3, 4, 5}, false)
	ex, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Len() != len(p) {
		t.Fatalf("Len = %d, want %d", ex.Len(), len(p))
	}
}

// TestThreadJumpChains pins the compiled tier's jump threading: a branch
// into a chain of unconditional jumps lands on the chain's final target,
// and the edge is charged for every ja it skips, so Executed still matches
// the interpreter.
func TestThreadJumpChains(t *testing.T) {
	// jeq -> ja -> ja -> ret 1; fall-through: ret 0.
	p := Program{
		Stmt(ClassLD|ModeABS|SizeW, 0),
		Jump(ClassJMP|JmpJEQ|SrcK, 5, 0, 1), // jt -> ja at 2
		Jump(ClassJMP|JmpJA, 1, 0, 0),       // -> ja at 4
		Stmt(ClassRET, 0),                   // jf target
		Jump(ClassJMP|JmpJA, 0, 0, 0),       // -> ret 1
		Stmt(ClassRET, 1),
	}
	ex, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		pc, jt int32
		cost   uint16
	}{{1, 5, 3}, {2, 5, 2}, {4, 5, 1}} {
		if op := ex.ops[c.pc]; op.jt != c.jt || op.costT != c.cost {
			t.Fatalf("op %d: taken edge -> %d cost %d, want -> %d cost %d", c.pc, op.jt, op.costT, c.jt, c.cost)
		}
	}
	for nr, want := range map[byte]uint32{5: 1, 6: 0} {
		if r, _ := runBoth(t, p, []byte{nr, 0, 0, 0}); r.Value != want {
			t.Fatalf("nr=%d: value %d, want %d", nr, r.Value, want)
		}
	}
}
