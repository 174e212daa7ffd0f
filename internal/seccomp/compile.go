package seccomp

import (
	"fmt"

	"draco/internal/bpf"
	"draco/internal/syscalls"
)

// Shape selects the code layout a profile compiles to.
type Shape int

const (
	// ShapeLinear is the classic libseccomp layout: a sequential chain of
	// per-syscall checks (Figure 1's "long list of if statements").
	ShapeLinear Shape = iota
	// ShapeBinaryTree is the libseccomp binary-tree optimization
	// (Hromatka, paper §XII): a binary search over syscall numbers.
	ShapeBinaryTree
)

func (s Shape) String() string {
	if s == ShapeBinaryTree {
		return "binary-tree"
	}
	return "linear"
}

// Compile lowers a profile to a classic BPF program with the given shape.
func Compile(p *Profile, shape Shape) (bpf.Program, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cp := *p
	cp.Rules = append([]Rule(nil), p.Rules...)
	cp.SortRules()
	var prog bpf.Program
	switch shape {
	case ShapeLinear:
		prog = compileLinear(&cp)
	case ShapeBinaryTree:
		prog = compileTree(&cp)
	default:
		return nil, fmt.Errorf("seccomp: unknown shape %d", shape)
	}
	// Validate against the extended instruction limit: syscall-complete
	// profiles with long argument-value tails exceed the stock 4096-entry
	// cap (see bpf.ExtendedMaxInsns).
	if err := prog.ValidateMax(bpf.ExtendedMaxInsns); err != nil {
		return nil, fmt.Errorf("seccomp: compiled program invalid: %w", err)
	}
	return prog, nil
}

// prologue checks the architecture token and loads the syscall number,
// exactly as every real seccomp filter begins.
func prologue(def Action) bpf.Program {
	return bpf.Program{
		bpf.Stmt(bpf.ClassLD|bpf.ModeABS|bpf.SizeW, OffArch),
		bpf.Jump(bpf.ClassJMP|bpf.JmpJEQ|bpf.SrcK, AuditArchX8664, 1, 0),
		bpf.Stmt(bpf.ClassRET, uint32(ActKillProcess)),
		bpf.Stmt(bpf.ClassLD|bpf.ModeABS|bpf.SizeW, OffNr),
	}
}

func compileLinear(p *Profile) bpf.Program {
	prog := prologue(p.DefaultAction)
	for _, r := range p.Rules {
		prog = append(prog, linearRule(r)...)
	}
	prog = append(prog, bpf.Stmt(bpf.ClassRET, uint32(p.DefaultAction)))
	return prog
}

// linearRule emits the block for one rule. On entry and on every exit path
// that continues to the next rule, A holds the syscall number.
func linearRule(r Rule) bpf.Program {
	if !r.ChecksArgs() {
		return bpf.Program{
			bpf.Jump(bpf.ClassJMP|bpf.JmpJEQ|bpf.SrcK, uint32(r.Syscall.Num), 0, 1),
			bpf.Stmt(bpf.ClassRET, uint32(ActAllow)),
		}
	}
	// Body: argument-set checks followed by a reload of the syscall number
	// (argument loads clobber A, and the next rule expects nr in A).
	body := setChecks(r)
	body = append(body, bpf.Stmt(bpf.ClassLD|bpf.ModeABS|bpf.SizeW, OffNr))
	// Header: skip the whole body (including the reload) when the syscall
	// number does not match. Use a ja trampoline when the body is too long
	// for an 8-bit jump offset.
	if len(body) <= 255 {
		return append(bpf.Program{
			bpf.Jump(bpf.ClassJMP|bpf.JmpJEQ|bpf.SrcK, uint32(r.Syscall.Num), 0, uint8(len(body))),
		}, body...)
	}
	return append(bpf.Program{
		bpf.Jump(bpf.ClassJMP|bpf.JmpJEQ|bpf.SrcK, uint32(r.Syscall.Num), 1, 0),
		bpf.Jump(bpf.ClassJMP|bpf.JmpJA, uint32(len(body)), 0, 0),
	}, body...)
}

// setChecks emits a rule's argument-set and masked-set checks, in order,
// into one program. Which arguments are wider than a C int is looked up
// once per rule, not once per set.
func setChecks(r Rule) bpf.Program {
	var wide [syscalls.MaxArgs]bool
	for i := range wide {
		wide[i] = r.Syscall.ArgWidth(i) > 4
	}
	var prog bpf.Program
	for _, set := range r.AllowedSets {
		prog = argSetCheck(prog, r.CheckedArgs, &wide, set)
	}
	for _, conds := range r.MaskedSets {
		prog = maskedSetCheck(prog, &wide, conds)
	}
	return prog
}

// argSetCheck appends the comparison ladder for one allowed argument
// tuple: for each checked argument, compare the low 32-bit word and — only
// for arguments wider than a C int (widths.go) — the high word as well
// (cBPF is a 32-bit machine; real libseccomp conditions on int-typed
// arguments compare one word the same way). Any mismatch jumps past the
// set; a full match returns ALLOW.
func argSetCheck(prog bpf.Program, checked []int, wide *[syscalls.MaxArgs]bool, set []uint64) bpf.Program {
	// Total set length: 2 instructions per narrow argument, 4 per wide
	// one, plus the final RET. Max 6*4+1 = 25, well within 8-bit offsets.
	setLen := 1
	for _, idx := range checked {
		if wide[idx] {
			setLen += 4
		} else {
			setLen += 2
		}
	}
	pos := 0 // index within the set
	for i, idx := range checked {
		lo := uint32(set[i])
		prog = append(prog,
			bpf.Stmt(bpf.ClassLD|bpf.ModeABS|bpf.SizeW, ArgLowOff(idx)),
			bpf.Jump(bpf.ClassJMP|bpf.JmpJEQ|bpf.SrcK, lo, 0, uint8(setLen-(pos+2))),
		)
		pos += 2
		if wide[idx] {
			hi := uint32(set[i] >> 32)
			prog = append(prog,
				bpf.Stmt(bpf.ClassLD|bpf.ModeABS|bpf.SizeW, ArgHighOff(idx)),
				bpf.Jump(bpf.ClassJMP|bpf.JmpJEQ|bpf.SrcK, hi, 0, uint8(setLen-(pos+2))),
			)
			pos += 2
		}
	}
	prog = append(prog, bpf.Stmt(bpf.ClassRET, uint32(ActAllow)))
	return prog
}

// maskedSetCheck appends one masked-comparison conjunction: for each
// condition, load the argument word(s), AND with the mask, and compare —
// libseccomp's SCMP_CMP_MASKED_EQ lowering. A conjunction that fully holds
// returns ALLOW; any failure falls through to the next set. wideArg marks
// the rule's arguments wider than a C int.
func maskedSetCheck(prog bpf.Program, wideArg *[syscalls.MaxArgs]bool, conds []MaskCond) bpf.Program {
	wide := func(c MaskCond) bool { return wideArg[c.ArgIndex] || c.Mask>>32 != 0 }
	// Condition cost: 3 instructions per compared word.
	setLen := 1
	for _, c := range conds {
		if wide(c) {
			setLen += 6
		} else {
			setLen += 3
		}
	}
	pos := 0
	for _, c := range conds {
		prog = append(prog,
			bpf.Stmt(bpf.ClassLD|bpf.ModeABS|bpf.SizeW, ArgLowOff(c.ArgIndex)),
			bpf.Stmt(bpf.ClassALU|bpf.ALUAnd|bpf.SrcK, uint32(c.Mask)),
			bpf.Jump(bpf.ClassJMP|bpf.JmpJEQ|bpf.SrcK, uint32(c.Value), 0, uint8(setLen-(pos+3))),
		)
		pos += 3
		if wide(c) {
			prog = append(prog,
				bpf.Stmt(bpf.ClassLD|bpf.ModeABS|bpf.SizeW, ArgHighOff(c.ArgIndex)),
				bpf.Stmt(bpf.ClassALU|bpf.ALUAnd|bpf.SrcK, uint32(c.Mask>>32)),
				bpf.Jump(bpf.ClassJMP|bpf.JmpJEQ|bpf.SrcK, uint32(c.Value>>32), 0, uint8(setLen-(pos+3))),
			)
			pos += 3
		}
	}
	prog = append(prog, bpf.Stmt(bpf.ClassRET, uint32(ActAllow)))
	return prog
}

// compileTree emits a binary search over syscall numbers with per-syscall
// leaf blocks. Internal nodes use a jge + ja pair so subtree displacements
// are not limited to 8 bits.
func compileTree(p *Profile) bpf.Program {
	prog := prologue(p.DefaultAction)
	prog = append(prog, treeNode(p.Rules, p.DefaultAction)...)
	return prog
}

func treeNode(rules []Rule, def Action) bpf.Program {
	if len(rules) == 0 {
		return bpf.Program{bpf.Stmt(bpf.ClassRET, uint32(def))}
	}
	if len(rules) == 1 {
		return treeLeaf(rules[0], def)
	}
	mid := len(rules) / 2
	left := treeNode(rules[:mid], def)
	right := treeNode(rules[mid:], def)
	pivot := uint32(rules[mid].Syscall.Num)
	// jge pivot: taken -> the ja to the right subtree; not taken -> left.
	node := bpf.Program{
		bpf.Jump(bpf.ClassJMP|bpf.JmpJGE|bpf.SrcK, pivot, 0, 1),
		bpf.Jump(bpf.ClassJMP|bpf.JmpJA, uint32(len(left)), 0, 0),
	}
	node = append(node, left...)
	node = append(node, right...)
	return node
}

// treeLeaf emits the terminal block for one rule. Both outcomes return, so
// A may be freely clobbered by argument loads.
func treeLeaf(r Rule, def Action) bpf.Program {
	if !r.ChecksArgs() {
		return bpf.Program{
			bpf.Jump(bpf.ClassJMP|bpf.JmpJEQ|bpf.SrcK, uint32(r.Syscall.Num), 0, 1),
			bpf.Stmt(bpf.ClassRET, uint32(ActAllow)),
			bpf.Stmt(bpf.ClassRET, uint32(def)),
		}
	}
	body := setChecks(r)
	body = append(body, bpf.Stmt(bpf.ClassRET, uint32(def)))
	if len(body)-1 <= 255 {
		leaf := bpf.Program{
			// On mismatch jump to the trailing default return.
			bpf.Jump(bpf.ClassJMP|bpf.JmpJEQ|bpf.SrcK, uint32(r.Syscall.Num), 0, uint8(len(body)-1)),
		}
		return append(leaf, body...)
	}
	leaf := bpf.Program{
		bpf.Jump(bpf.ClassJMP|bpf.JmpJEQ|bpf.SrcK, uint32(r.Syscall.Num), 1, 0),
		bpf.Jump(bpf.ClassJMP|bpf.JmpJA, uint32(len(body)-1), 0, 0),
	}
	return append(leaf, body...)
}
