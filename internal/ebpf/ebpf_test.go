package ebpf

import (
	"strings"
	"testing"
)

// mustSource assembles and verifies or fails the test.
func mustSource(t *testing.T, name string, maps []MapSpec, text []string) *Source {
	t.Helper()
	s, err := NewSource(name, maps, text)
	if err != nil {
		t.Fatalf("NewSource(%s): %v", name, err)
	}
	return s
}

// Demo policy: tenant-wide open()/openat() budget (limit 4 for the test).
var rateLimitText = []string{
	"ldctx r1, nr",
	"jeq r1, 2, do    ; open",
	"jeq r1, 257, do  ; openat",
	"ret allow",
	"do:",
	"mov r2, 0",
	"mov r3, 1",
	"madd r4, budget[r2], r3",
	"jgt r4, 4, over",
	"ret allow",
	"over:",
	"ret errno(1)",
}

var rateLimitMaps = []MapSpec{{Name: "budget", Size: 1}}

// Demo policy: read() denied until something was opened.
var openBeforeReadText = []string{
	"ldctx r1, nr",
	"jeq r1, 2, op",
	"jeq r1, 257, op",
	"jeq r1, 0, rd    ; read",
	"ret allow",
	"op:",
	"mov r2, 0",
	"mov r3, 1",
	"mst opened[r2], r3",
	"ret allow",
	"rd:",
	"mov r2, 0",
	"mld r4, opened[r2]",
	"jeq r4, 1, ok",
	"ret errno(9)",
	"ok:",
	"ret allow",
}

var openBeforeReadMaps = []MapSpec{{Name: "opened", Size: 1}}

func run(t *testing.T, a *Attached, nr int32, args [NumArgs]uint64) CheckResult {
	t.Helper()
	ctx := NewCtx(nr, args)
	return a.Check(&ctx)
}

// runVM executes src's program on ctx with no constant extraction, so even
// a number the classifier would answer runs the program.
func runVM(t *testing.T, src *Source, ctx *Ctx) Result {
	t.Helper()
	r, err := src.Verified().NewVM().Run(ctx, NewMapSet(src.Maps))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRateLimitPolicy(t *testing.T) {
	src := mustSource(t, "rate-limit", rateLimitMaps, rateLimitText)
	a := src.Attach()
	for i := 0; i < 4; i++ {
		if r := run(t, a, 2, [NumArgs]uint64{}); !Allows(r.Action) {
			t.Fatalf("open %d: denied early (action %#x)", i+1, r.Action)
		}
	}
	if r := run(t, a, 2, [NumArgs]uint64{}); Allows(r.Action) {
		t.Fatalf("open 5: allowed past the budget")
	}
	// Unrelated syscalls are constant-allow and never execute.
	if r := run(t, a, 1, [NumArgs]uint64{}); !Allows(r.Action) || !r.ConstHit || r.Executed != 0 {
		t.Fatalf("write: want const allow, got %+v", r)
	}
	// A fresh epoch resets the budget.
	a.ResetState()
	if r := run(t, a, 2, [NumArgs]uint64{}); !Allows(r.Action) {
		t.Fatalf("open after reset: denied")
	}
}

func TestOpenBeforeReadPolicy(t *testing.T) {
	src := mustSource(t, "open-before-read", openBeforeReadMaps, openBeforeReadText)
	a := src.Attach()
	if r := run(t, a, 0, [NumArgs]uint64{}); Allows(r.Action) {
		t.Fatalf("read before open: allowed")
	}
	if r := run(t, a, 257, [NumArgs]uint64{}); !Allows(r.Action) {
		t.Fatalf("openat: denied")
	}
	// The same (nr, args) pair now gets the opposite decision: the
	// whitelist model cannot express this.
	if r := run(t, a, 0, [NumArgs]uint64{}); !Allows(r.Action) {
		t.Fatalf("read after open: denied")
	}
}

func TestLoopMembershipScan(t *testing.T) {
	text := []string{
		"ldctx r3, arg1",
		"mov r1, 7",
		"mov r2, 0",
		"scan:",
		"and r2, 7 ; re-mask at the loop head so the widened join re-bounds",
		"mld r4, allowed[r2]",
		"jeq r4, r3, hit",
		"add r2, 1",
		"loop r1, 7, scan",
		"ret errno(1)",
		"hit:",
		"ret allow",
	}
	src := mustSource(t, "scan", []MapSpec{{Name: "allowed", Size: 8}}, text)
	a := src.Attach()
	a.Maps().Store(0, 3, 42)
	a.Maps().Store(0, 5, 99)
	if r := run(t, a, 1, [NumArgs]uint64{0, 42}); !Allows(r.Action) {
		t.Fatalf("member 42: denied")
	}
	if r := run(t, a, 1, [NumArgs]uint64{0, 7}); Allows(r.Action) {
		t.Fatalf("non-member 7: allowed")
	}
	if c := src.Verified().Cost(); c <= 0 || c > MaxCost {
		t.Fatalf("cost %d out of range", c)
	}
}

func TestNestedLoopBudgets(t *testing.T) {
	text := []string{
		"mov r5, 0",
		"mov r1, 2",
		"outer:",
		"mov r2, 2",
		"inner:",
		"add r5, 1",
		"loop r2, 4, inner",
		"loop r1, 4, outer",
		"ret r5",
	}
	src := mustSource(t, "nested", nil, text)
	ctx := NewCtx(0, [NumArgs]uint64{})
	r := runVM(t, src, &ctx)
	if r.Executed <= 0 || r.Executed > src.Verified().Cost() {
		t.Fatalf("executed %d outside (0, cost %d]", r.Executed, src.Verified().Cost())
	}
	// The inner site's budget of 4 is global across outer iterations: the
	// body increments r5 once per inner arrival. Whatever the exact count,
	// the action must be a canonicalized word.
	if r.Action != RetKillProcess && !Allows(r.Action) {
		t.Logf("action %#x", r.Action)
	}
}

func TestVerifyRejects(t *testing.T) {
	m8 := []MapSpec{{Name: "m", Size: 8}}
	big := make(Program, 0, 20)
	big = append(big, Instruction{Op: OpMovImm, Dst: 1, Imm: 1})
	for i := 0; i < 16; i++ {
		big = append(big, Instruction{Op: OpAluImm, Sub: AluAdd, Dst: 1, Imm: 1})
	}
	big = append(big, Instruction{Op: OpLoop, Dst: 1, Imm: MaxLoopIter, Off: -17})
	big = append(big, Instruction{Op: OpRet, Sub: RetImm, Imm: uint64(RetAllow)})

	overlap := Program{
		{Op: OpMovImm, Dst: 1, Imm: 1},        // 0
		{Op: OpMovImm, Dst: 2, Imm: 1},        // 1
		{Op: OpMovImm, Dst: 3, Imm: 1},        // 2
		{Op: OpLoop, Dst: 1, Imm: 2, Off: -4}, // 3: region [0,3]
		{Op: OpMovImm, Dst: 4, Imm: 1},        // 4
		{Op: OpLoop, Dst: 2, Imm: 2, Off: -4}, // 5: region [2,5] — overlaps
		{Op: OpRet, Sub: RetImm, Imm: uint64(RetAllow)},
	}

	cases := []struct {
		name string
		maps []MapSpec
		prog Program
		want string
	}{
		{"empty", nil, Program{}, "empty"},
		{"no-ret", nil, Program{{Op: OpMovImm, Dst: 0}}, "end in ret"},
		{"uninit-ret", nil, Program{{Op: OpRet, Sub: RetReg, Dst: 0}}, "before it is written"},
		{"uninit-alu", nil, Program{
			{Op: OpAluImm, Sub: AluAdd, Dst: 3, Imm: 1},
			{Op: OpRet, Sub: RetImm, Imm: uint64(RetAllow)},
		}, "before it is written"},
		{"backward-jmp", nil, Program{
			{Op: OpMovImm, Dst: 0},
			{Op: OpJmp, Off: -2},
			{Op: OpRet, Sub: RetImm, Imm: uint64(RetAllow)},
		}, "backward"},
		{"jump-past-end", nil, Program{
			{Op: OpMovImm, Dst: 0},
			{Op: OpJImm, Sub: JEq, Dst: 0, Off: 5},
			{Op: OpRet, Sub: RetImm, Imm: uint64(RetAllow)},
		}, "past end"},
		{"bad-reg", nil, Program{
			{Op: OpMovImm, Dst: 11},
			{Op: OpRet, Sub: RetImm, Imm: uint64(RetAllow)},
		}, "register"},
		{"bad-field", nil, Program{
			{Op: OpLdCtx, Dst: 0, Imm: 99},
			{Op: OpRet, Sub: RetImm, Imm: uint64(RetAllow)},
		}, "ctx field"},
		{"undeclared-map", nil, Program{
			{Op: OpMovImm, Dst: 1},
			{Op: OpMapLd, Dst: 0, Src: 1, Imm: 0},
			{Op: OpRet, Sub: RetImm, Imm: uint64(RetAllow)},
		}, "not declared"},
		{"unbounded-key", m8, Program{
			{Op: OpLdCtx, Dst: 1, Imm: FieldArg0},
			{Op: OpMapLd, Dst: 2, Src: 1, Imm: 0},
			{Op: OpRet, Sub: RetImm, Imm: uint64(RetAllow)},
		}, "mask or guard"},
		{"zero-loop-bound", nil, Program{
			{Op: OpMovImm, Dst: 1, Imm: 1},
			{Op: OpLoop, Dst: 1, Imm: 0, Off: -2},
			{Op: OpRet, Sub: RetImm, Imm: uint64(RetAllow)},
		}, "loop bound"},
		{"forward-loop", nil, Program{
			{Op: OpMovImm, Dst: 1, Imm: 1},
			{Op: OpLoop, Dst: 1, Imm: 2, Off: 0},
			{Op: OpRet, Sub: RetImm, Imm: uint64(RetAllow)},
		}, "backward"},
		{"cost-blowup", nil, big, "worst-case cost"},
		{"overlapping-loops", nil, overlap, "overlap"},
	}
	for _, tc := range cases {
		_, err := Verify(tc.prog, tc.maps)
		if err == nil {
			t.Fatalf("%s: verified unexpectedly", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		// Rejected programs must not be executable through any front door.
		if _, err := NewVM(tc.prog, tc.maps); err == nil {
			t.Fatalf("%s: NewVM accepted a rejected program", tc.name)
		}
	}
}

func TestVerifyAcceptsGuardedKeys(t *testing.T) {
	m8 := []MapSpec{{Name: "m", Size: 8}}
	masked := Program{
		{Op: OpLdCtx, Dst: 1, Imm: FieldArg0},
		{Op: OpAluImm, Sub: AluAnd, Dst: 1, Imm: 7},
		{Op: OpMapLd, Dst: 2, Src: 1, Imm: 0},
		{Op: OpRet, Sub: RetImm, Imm: uint64(RetAllow)},
	}
	if _, err := Verify(masked, m8); err != nil {
		t.Fatalf("masked key rejected: %v", err)
	}
	guarded := Program{
		{Op: OpLdCtx, Dst: 1, Imm: FieldArg0},
		{Op: OpJImm, Sub: JLt, Dst: 1, Imm: 8, Off: 1},
		{Op: OpRet, Sub: RetImm, Imm: uint64(RetErrno(1))},
		{Op: OpMapLd, Dst: 2, Src: 1, Imm: 0},
		{Op: OpRet, Sub: RetImm, Imm: uint64(RetAllow)},
	}
	if _, err := Verify(guarded, m8); err != nil {
		t.Fatalf("branch-guarded key rejected: %v", err)
	}
	modded := Program{
		{Op: OpLdCtx, Dst: 1, Imm: FieldArg0},
		{Op: OpAluImm, Sub: AluMod, Dst: 1, Imm: 8},
		{Op: OpMapLd, Dst: 2, Src: 1, Imm: 0},
		{Op: OpRet, Sub: RetImm, Imm: uint64(RetAllow)},
	}
	if _, err := Verify(modded, m8); err != nil {
		t.Fatalf("mod-bounded key rejected: %v", err)
	}
}

func TestClassify(t *testing.T) {
	src := mustSource(t, "rate-limit", rateLimitMaps, rateLimitText)
	cls := src.Classify()
	if !cls.MustRun(2) || !cls.MustRun(257) {
		t.Fatalf("open/openat not must-run")
	}
	if act, ok := cls.ConstAction(1); !ok || !Allows(act) {
		t.Fatalf("write: want constant allow, got %#x ok=%v", act, ok)
	}
	if !cls.MustRun(MaxNr) || !cls.MustRun(-1) {
		t.Fatalf("out-of-range nrs must be must-run")
	}
	nc, ns, nm := cls.Counts()
	if nm != 2 || ns != 0 || nc != MaxNr-2 {
		t.Fatalf("counts: const=%d stateless=%d mustrun=%d", nc, ns, nm)
	}

	arg := mustSource(t, "arg-dep", nil, []string{
		"ldctx r1, nr",
		"jeq r1, 1, wr",
		"ret allow",
		"wr:",
		"ldctx r2, arg2",
		"jle r2, 4096, ok",
		"ret errno(27)",
		"ok:",
		"ret allow",
	})
	acls := arg.Classify()
	if acls.Class(1) != ClassStateless {
		t.Fatalf("write: want stateless, got %v", acls.Class(1))
	}
	if got, want := acls.ArgMask(1), uint64(0xff)<<16; got != want {
		t.Fatalf("write argmask %#x, want %#x", got, want)
	}
	if acls.Class(0) != ClassConstant {
		t.Fatalf("read: want constant, got %v", acls.Class(0))
	}

	pay := mustSource(t, "payload", nil, []string{
		"ldctx r1, pay0",
		"jeq r1, 0x7f, deny",
		"ret allow",
		"deny:",
		"ret kill",
	})
	if pay.Classify().Class(0) != ClassMustRun {
		t.Fatalf("payload reader: want must-run")
	}
}

func TestCanonAction(t *testing.T) {
	cases := []struct {
		in   uint64
		want uint32
	}{
		{uint64(RetAllow), RetAllow},
		{uint64(RetErrno(5)), RetErrno(5)},
		{uint64(RetKillThread) | 7, 7},  // kill-thread with data
		{0x12345678, RetKillProcess},    // unknown class → most restrictive
		{0xdeadbeef_7fff0000, RetAllow}, // high bits truncate like the kernel
	}
	for _, tc := range cases {
		if got := CanonAction(tc.in); got != tc.want {
			t.Fatalf("CanonAction(%#x) = %#x, want %#x", tc.in, got, tc.want)
		}
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		name string
		text []string
		want string
	}{
		{"unknown-op", []string{"frobnicate r1"}, "unknown mnemonic"},
		{"undefined-label", []string{"jmp nowhere", "ret allow"}, "undefined label"},
		{"bad-map", []string{"mld r1, nosuch[r2]", "ret allow"}, "not declared"},
		{"bad-reg", []string{"mov r99, 1", "ret allow"}, "want"},
		{"dup-label", []string{"a:", "a:", "ret allow"}, "duplicate label"},
	}
	for _, tc := range cases {
		if _, err := Assemble(tc.text, nil); err == nil {
			t.Fatalf("%s: assembled unexpectedly", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestPayloadReads(t *testing.T) {
	src := mustSource(t, "payload", nil, []string{
		"ldctx r1, plen",
		"jeq r1, 0, empty",
		"ldctx r2, pay0",
		"jeq r2, 0x7f454c46, deny ; ELF magic in the payload window",
		"ret allow",
		"empty:",
		"ret allow",
		"deny:",
		"ret errno(13)",
	})
	ctx := NewCtx(59, [NumArgs]uint64{})
	ctx.Payload[0] = 0x7f454c46
	ctx.PayloadLen = 1
	if r := runVM(t, src, &ctx); Allows(r.Action) {
		t.Fatalf("ELF payload: allowed")
	}
	// Out-of-window payload words read as zero, never fault.
	ctx2 := NewCtx(59, [NumArgs]uint64{})
	if r := runVM(t, src, &ctx2); !Allows(r.Action) {
		t.Fatalf("empty payload: denied")
	}
}

func TestZeroAllocsProgCheck(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation behaviour differs under -race")
	}
	src := mustSource(t, "rate-limit", rateLimitMaps, rateLimitText)
	a := src.Attach()
	ctx := NewCtx(2, [NumArgs]uint64{})
	if n := testing.AllocsPerRun(2000, func() { a.Check(&ctx) }); n != 0 {
		t.Fatalf("stateful Check allocates %v per op", n)
	}
	c2 := NewCtx(1, [NumArgs]uint64{})
	if n := testing.AllocsPerRun(2000, func() { a.Check(&c2) }); n != 0 {
		t.Fatalf("const-extracted Check allocates %v per op", n)
	}
	vm := src.Verified().NewVM()
	ms := NewMapSet(rateLimitMaps)
	if n := testing.AllocsPerRun(2000, func() { _, _ = vm.Run(&ctx, ms) }); n != 0 {
		t.Fatalf("interp Run allocates %v per op", n)
	}
}
