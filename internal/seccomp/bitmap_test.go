package seccomp_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"draco/internal/bpf"
	"draco/internal/profilegen"
	"draco/internal/seccomp"
	"draco/internal/workloads"
)

// bitmapDigests is the committed table TestBitmapPinnedDifferential checks
// against: one "<profile>/<shape> <sha256>" line per pinned bitmap.
const bitmapDigests = "testdata/bitmap_digests.txt"

// bitmapDigest hashes every entry of b: per syscall number below
// BitmapMaxNr, one known byte and the 32-bit little-endian action.
func bitmapDigest(b *seccomp.Bitmap) string {
	h := sha256.New()
	var rec [5]byte
	for nr := int32(0); nr < seccomp.BitmapMaxNr; nr++ {
		act, ok := b.ConstAction(nr)
		rec[0] = 0
		if ok {
			rec[0] = 1
		}
		binary.LittleEndian.PutUint32(rec[1:], uint32(act))
		h.Write(rec[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pinnedProfiles is the population the digests cover: the three shipped
// generic profiles and, for each of the 15 workloads, its complete and its
// ID-only profile.
func pinnedProfiles() []*seccomp.Profile {
	ps := []*seccomp.Profile{seccomp.DockerDefault(), seccomp.GVisorDefault(), seccomp.Firecracker()}
	opts := profilegen.Options{IncludeRuntime: true}
	for _, w := range workloads.All() {
		tr := w.Generate(5_000, 0xD12AC0)
		ps = append(ps,
			profilegen.Complete(w.Name+"-complete", tr, opts),
			profilegen.NoArgs(w.Name, tr, opts)) // named <workload>-noargs
	}
	return ps
}

// TestBitmapPinnedDifferential pins ComputeBitmap's output, bit for bit,
// on real profiles in both filter shapes: a rewrite of the abstract pass
// must reproduce every known flag and every action of the committed
// digests. A deliberate change to the compiler or the pass shows up here
// with the new digest in the failure message.
func TestBitmapPinnedDifferential(t *testing.T) {
	f, err := os.Open(bitmapDigests)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), " "); ok {
			want[k] = v
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	seen := 0
	check := func(key, got string) {
		w, ok := want[key]
		if !ok {
			t.Errorf("%s: no committed digest (got %s)", key, got)
			return
		}
		seen++
		if got != w {
			t.Errorf("%s: bitmap digest %s, committed %s", key, got, w)
		}
	}
	for _, p := range pinnedProfiles() {
		for _, shape := range []seccomp.Shape{seccomp.ShapeLinear, seccomp.ShapeBinaryTree} {
			prog, err := seccomp.Compile(p, shape)
			if err != nil {
				t.Fatalf("%s/%s: %v", p.Name, shape, err)
			}
			check(fmt.Sprintf("%s/%s", p.Name, shape), bitmapDigest(seccomp.ComputeBitmap(prog)))
		}
	}
	// Seeded generated programs reach the joins, scratch cells and bails
	// that compiled profiles rarely do; one digest covers all their bitmaps.
	rng := rand.New(rand.NewSource(0xB17))
	all := sha256.New()
	for i := 0; i < 4000; i++ {
		b := make([]byte, 3*(1+rng.Intn(60)))
		rng.Read(b)
		all.Write([]byte(bitmapDigest(seccomp.ComputeBitmap(fuzzProgram(b)))))
	}
	check("generated/4000", hex.EncodeToString(all.Sum(nil)))
	if seen != len(want) {
		t.Errorf("checked %d digests, %s holds %d", seen, bitmapDigests, len(want))
	}
}

// fuzzProgram builds a validated program from b, three bytes per
// instruction: a selector and two operands. Its menu reaches every
// construct the abstract pass models: nr/arch/argument loads, IND and MSH
// loads, scratch ST/STX and MEM loads, ALU on K and X, TAX/TXA, JEQ/JGT/
// JGE/JSET on K and X, JA, and RET of a constant or of A. Jump targets are
// clamped into the program, so every output validates.
func fuzzProgram(b []byte) bpf.Program {
	n := len(b) / 3
	if n > 64 {
		n = 64
	}
	rets := []uint32{uint32(seccomp.ActAllow), uint32(seccomp.ActKillProcess), uint32(seccomp.Errno(1)), uint32(seccomp.ActTrap)}
	p := make(bpf.Program, 0, n+1)
	for i := 0; i < n; i++ {
		sel, u, v := b[3*i], b[3*i+1], b[3*i+2]
		k := uint32(u) | uint32(v)<<8
		// Forward offsets that stay inside the final program (n+1 long).
		room := n - i - 1
		jt, jf := uint8(0), uint8(0)
		if room > 0 {
			jt, jf = uint8(int(u)%(room+1)), uint8(int(v)%(room+1))
		}
		var ins bpf.Instruction
		switch sel % 24 {
		case 0:
			ins = bpf.Stmt(bpf.ClassLD|bpf.ModeABS|bpf.SizeW, seccomp.OffNr)
		case 1:
			ins = bpf.Stmt(bpf.ClassLD|bpf.ModeABS|bpf.SizeW, seccomp.OffArch)
		case 2:
			ins = bpf.Stmt(bpf.ClassLD|bpf.ModeABS|bpf.SizeW, 4*uint32(u%16))
		case 3:
			ins = bpf.Stmt(bpf.ClassLD|bpf.ModeABS|bpf.SizeH, uint32(u%64))
		case 4:
			ins = bpf.Stmt(bpf.ClassLD|bpf.ModeABS|bpf.SizeB, uint32(u%66))
		case 5:
			ins = bpf.Stmt(bpf.ClassLD|bpf.ModeIMM, k)
		case 6:
			ins = bpf.Stmt(bpf.ClassLDX|bpf.ModeIMM, uint32(u%72))
		case 7:
			ins = bpf.Stmt(bpf.ClassLD|bpf.ModeIND|bpf.SizeW, uint32(v%64))
		case 8:
			ins = bpf.Stmt(bpf.ClassLDX|bpf.ModeMSH|bpf.SizeB, uint32(v%66))
		case 9:
			ins = bpf.Stmt(bpf.ClassLD|bpf.ModeMEM, uint32(u%bpf.ScratchSlots))
		case 10:
			ins = bpf.Stmt(bpf.ClassLDX|bpf.ModeMEM, uint32(u%bpf.ScratchSlots))
		case 11:
			ins = bpf.Stmt(bpf.ClassST, uint32(u%bpf.ScratchSlots))
		case 12:
			ins = bpf.Stmt(bpf.ClassSTX, uint32(u%bpf.ScratchSlots))
		case 13:
			ins = bpf.Stmt(bpf.ClassLD|bpf.ModeLEN, 0)
		case 14:
			aluOps := []uint16{bpf.ALUAdd, bpf.ALUSub, bpf.ALUMul, bpf.ALUDiv, bpf.ALUOr, bpf.ALUAnd,
				bpf.ALULsh, bpf.ALURsh, bpf.ALUNeg, bpf.ALUMod, bpf.ALUXor}
			op := aluOps[int(u)%len(aluOps)]
			src := uint16(bpf.SrcK)
			if v&1 != 0 {
				src = bpf.SrcX
			}
			kk := uint32(v >> 1)
			if src == bpf.SrcK && (op == bpf.ALUDiv || op == bpf.ALUMod) && kk == 0 {
				kk = 1
			}
			ins = bpf.Stmt(bpf.ClassALU|op|src, kk)
		case 15:
			ins = bpf.Stmt(bpf.ClassMISC|bpf.MiscTAX, 0)
		case 16:
			ins = bpf.Stmt(bpf.ClassMISC|bpf.MiscTXA, 0)
		case 17, 18:
			// The nr dispatch a seccomp filter opens with, so that some
			// numbers take paths the pass can resolve.
			ins = bpf.Jump(bpf.ClassJMP|bpf.JmpJEQ|bpf.SrcK, uint32(u)|uint32(sel&0x80)<<1, jt, jf)
		case 19:
			ops := []uint16{bpf.JmpJEQ, bpf.JmpJGT, bpf.JmpJGE, bpf.JmpJSET}
			ins = bpf.Jump(bpf.ClassJMP|ops[sel/24%4]|bpf.SrcK, uint32(u^v), jt, jf)
		case 20:
			ops := []uint16{bpf.JmpJEQ, bpf.JmpJGT, bpf.JmpJGE, bpf.JmpJSET}
			ins = bpf.Jump(bpf.ClassJMP|ops[sel/24%4]|bpf.SrcX, 0, jt, jf)
		case 21:
			ins = bpf.Stmt(bpf.ClassJMP|bpf.JmpJA, uint32(jt))
		case 22:
			ins = bpf.Stmt(bpf.ClassRET|bpf.SrcK, rets[int(u)%len(rets)])
		case 23:
			ins = bpf.Stmt(bpf.ClassRET|0x10, 0) // RET A
		}
		p = append(p, ins)
	}
	return append(p, bpf.Stmt(bpf.ClassRET|bpf.SrcK, rets[len(b)%len(rets)]))
}

// FuzzBitmapSound checks the bitmap's soundness on generated programs:
// every syscall number ComputeBitmap claims to know must return exactly
// that action from the interpreter on every sampled argument tuple, ip and
// argument words included, without a fault.
func FuzzBitmapSound(f *testing.F) {
	f.Add([]byte{0, 0, 0, 17, 3, 1, 22, 0, 0, 22, 1, 0})
	f.Add([]byte{0, 0, 0, 17, 2, 2, 2, 1, 0, 19, 4, 4, 22, 0, 0, 22, 1, 0, 22, 2, 0})
	f.Add([]byte{5, 7, 0, 11, 3, 0, 0, 0, 0, 12, 4, 0, 9, 3, 0, 15, 0, 0, 10, 4, 0, 20, 1, 1, 23, 0, 0, 22, 1, 0})
	f.Add([]byte{6, 8, 0, 7, 0, 16, 8, 0, 0, 14, 1, 0, 14, 3, 3, 21, 1, 0, 16, 0, 0, 23, 0, 0, 22, 0, 0})
	f.Add([]byte{0, 0, 0, 41, 5, 2, 13, 0, 0, 14, 7, 1, 43, 0, 3, 22, 3, 0, 4, 9, 0, 23, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		prog := fuzzProgram(b)
		if err := prog.Validate(); err != nil {
			t.Fatalf("generated program does not validate: %v\n%s", err, bpf.Disassemble(prog))
		}
		bm := seccomp.ComputeBitmap(prog)
		if bm == nil {
			t.Fatal("ComputeBitmap refused a valid program")
		}
		vm, err := bpf.NewVM(prog)
		if err != nil {
			t.Fatal(err)
		}
		samples := []seccomp.Data{
			{},
			{IP: 0xffffffffffffffff, Args: [6]uint64{1, 1, 1, 1, 1, 1}},
			{IP: 0x400000, Args: [6]uint64{0xffffffff, 0xffffffff00000000, 0x8000, 0x7fffffffffffffff, 1 << 32, 3}},
			{IP: 0x1234, Args: [6]uint64{0x0102030405060708, 0xdeadbeef, 0, 0xff, 0x80000000, 0xfefefefefefefefe}},
		}
		var buf [seccomp.DataSize]byte
		for nr := int32(0); nr < seccomp.BitmapMaxNr; nr++ {
			act, ok := bm.ConstAction(nr)
			if !ok {
				continue
			}
			for _, d := range samples {
				d.Nr, d.Arch = nr, seccomp.AuditArchX8664
				d.Marshal(buf[:])
				r, err := vm.Run(buf[:])
				if err != nil {
					t.Fatalf("nr=%d: bitmap knows %v but the interpreter faults: %v\n%s", nr, act, err, bpf.Disassemble(prog))
				}
				if seccomp.Action(r.Value) != act {
					t.Fatalf("nr=%d data=%+v: bitmap %v, interpreter %v\n%s", nr, d, act, seccomp.Action(r.Value), bpf.Disassemble(prog))
				}
			}
		}
	})
}
