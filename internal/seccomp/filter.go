package seccomp

import (
	"fmt"

	"draco/internal/bpf"
)

// ExecMode selects how an attached filter executes its BPF program.
type ExecMode uint8

const (
	// ExecCompiled runs the pre-decoded direct-threaded program. It is
	// decision- and Executed-count-identical to the interpreter (the
	// differential suites pin this), so it is the simulator's filter, whose
	// Executed counts the cycle model charges.
	ExecCompiled ExecMode = iota
	// ExecInterp runs the generic decode-and-dispatch interpreter: the
	// oracle the differential tests compare the other tiers against.
	ExecInterp
	// ExecBitmap is ExecCompiled plus the per-syscall constant-action
	// bitmap: provably arg-independent syscalls resolve in O(1) with
	// Executed == 0, everything else runs the compiled program. The
	// concurrent checker always runs it.
	ExecBitmap
)

// String implements fmt.Stringer.
func (m ExecMode) String() string {
	switch m {
	case ExecCompiled:
		return "compiled"
	case ExecInterp:
		return "interp"
	case ExecBitmap:
		return "bitmap"
	}
	return fmt.Sprintf("execmode(%d)", uint8(m))
}

// Filter is an attached, compiled seccomp filter: the unit the kernel runs
// on every system call of a filtered process. A Filter is immutable after
// construction and safe for concurrent use.
type Filter struct {
	Profile *Profile
	Shape   Shape
	Mode    ExecMode
	prog    bpf.Program
	vm      *bpf.VM
	exec    *bpf.Exec
	bitmap  *Bitmap
}

// NewFilter compiles a profile into an attachable filter using the default
// compiled execution tier.
func NewFilter(p *Profile, shape Shape) (*Filter, error) {
	return NewFilterMode(p, shape, ExecCompiled)
}

// NewFilterMode compiles a profile into an attachable filter with an
// explicit execution mode.
func NewFilterMode(p *Profile, shape Shape, mode ExecMode) (*Filter, error) {
	prog, err := Compile(p, shape)
	if err != nil {
		return nil, err
	}
	f := &Filter{Profile: p, Shape: shape, Mode: mode, prog: prog}
	// Each executor validates prog again, so build only the one this mode runs.
	if mode == ExecInterp {
		f.vm, err = bpf.NewVM(prog)
	} else {
		f.exec, err = bpf.Compile(prog)
	}
	if err != nil {
		return nil, err
	}
	if mode == ExecBitmap {
		f.bitmap = ComputeBitmap(prog)
	}
	return f, nil
}

// Program returns the compiled BPF program.
func (f *Filter) Program() bpf.Program { return f.prog }

// Len returns the static program length in instructions.
func (f *Filter) Len() int { return len(f.prog) }

// Bitmap returns the constant-action bitmap, or nil unless ExecBitmap.
func (f *Filter) Bitmap() *Bitmap { return f.bitmap }

// CheckResult reports one filter execution.
type CheckResult struct {
	Action Action
	// Executed is the number of BPF instructions the run executed; this is
	// the quantity the execution-time model charges for. A bitmap hit
	// executes nothing.
	Executed int
	// BitmapHit reports that the action came from the constant-action
	// bitmap without running the filter.
	BitmapHit bool
}

// Check runs the filter over a system call. Runtime faults (which real BPF
// cannot have after validation, but belt-and-braces) deny the call.
// The seccomp_data image is marshaled into a per-call stack buffer, so one
// Filter value is safe to check from many goroutines at once.
func (f *Filter) Check(d *Data) CheckResult {
	if f.bitmap != nil {
		if act, ok := f.bitmap.Lookup(d); ok {
			return CheckResult{Action: act, BitmapHit: true}
		}
	}
	var buf [DataSize]byte
	d.Marshal(buf[:])
	var r bpf.Result
	var err error
	if f.exec != nil {
		r, err = f.exec.Run(buf[:])
	} else {
		r, err = f.vm.Run(buf[:])
	}
	if err != nil {
		return CheckResult{Action: ActKillProcess, Executed: r.Executed}
	}
	return CheckResult{Action: Action(r.Value), Executed: r.Executed}
}

// Chain is a stack of attached filters. The kernel runs every attached
// filter on every system call and keeps the most restrictive result; the
// paper's syscall-complete-2x profile is exactly the syscall-complete
// filter attached twice (§IV-A).
type Chain []*Filter

// Check runs every filter and combines results; Executed sums across
// filters, which is what doubles the checking overhead for -2x profiles.
// BitmapHit is set only when every filter in the chain resolved through
// its bitmap (so the whole check was O(1) per filter).
func (c Chain) Check(d *Data) CheckResult {
	if len(c) == 0 {
		return CheckResult{Action: ActAllow}
	}
	out := CheckResult{Action: ActAllow, BitmapHit: true}
	for _, f := range c {
		r := f.Check(d)
		out.Action = Combine(out.Action, r.Action)
		out.Executed += r.Executed
		out.BitmapHit = out.BitmapHit && r.BitmapHit
	}
	return out
}
