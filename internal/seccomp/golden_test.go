package seccomp

import (
	"testing"

	"draco/internal/bpf"
	"draco/internal/syscalls"
)

// TestFigure1CompiledGolden pins the exact code the linear compiler emits
// for the paper's Figure 1 policy (personality allowed with persona
// 0xffffffff or 0x20008): prologue, syscall-number dispatch, two
// argument-set ladders, and the default return. A change to the compiler's
// layout shows up as a diff here.
func TestFigure1CompiledGolden(t *testing.T) {
	p := &Profile{
		Name:          "figure1",
		DefaultAction: ActKillProcess,
		Rules: []Rule{{
			Syscall:     syscalls.MustByName("personality"),
			CheckedArgs: []int{0},
			AllowedSets: [][]uint64{{0xffffffff}, {0x20008}},
		}},
	}
	prog, err := Compile(p, ShapeLinear)
	if err != nil {
		t.Fatal(err)
	}
	const golden = `   0: ldA w [4]
   1: jeq  #0xc000003e, 3, 2
   2: ret  #0x80000000
   3: ldA w [0]
   4: jeq  #0x87, 5, 16
   5: ldA w [16]
   6: jeq  #0xffffffff, 7, 10
   7: ldA w [20]
   8: jeq  #0x0, 9, 10
   9: ret  #0x7fff0000
  10: ldA w [16]
  11: jeq  #0x20008, 12, 15
  12: ldA w [20]
  13: jeq  #0x0, 14, 15
  14: ret  #0x7fff0000
  15: ldA w [0]
  16: ret  #0x80000000
`
	got := bpf.Disassemble(prog)
	if got != golden {
		t.Errorf("compiled program diverged from golden:\ngot:\n%s\nwant:\n%s", got, golden)
	}
}

// TestGenericProfilesCompile smoke-compiles every shipped generic profile
// under both shapes and bounds their sizes.
func TestGenericProfilesCompile(t *testing.T) {
	for _, p := range []*Profile{DockerDefault(), GVisorDefault(), Firecracker()} {
		for _, shape := range []Shape{ShapeLinear, ShapeBinaryTree} {
			prog, err := Compile(p, shape)
			if err != nil {
				t.Fatalf("%s/%v: %v", p.Name, shape, err)
			}
			if len(prog) < p.NumSyscalls() {
				t.Errorf("%s/%v: %d instructions for %d rules", p.Name, shape, len(prog), p.NumSyscalls())
			}
			if len(prog) > 8192 {
				t.Errorf("%s/%v: %d instructions, implausibly large for a generic profile", p.Name, shape, len(prog))
			}
		}
	}
}
