package ebpf

// Attached is one tenant's live programmable policy: the lowered program
// plus its map state. A profile hot-swap attaches the (possibly new)
// program afresh, which starts a blank map epoch — the same generation
// semantics the VAT applies to cached decisions. Check is safe for
// concurrent use: run state is on the stack and map slots are atomic.
type Attached struct {
	vm   *VM
	maps *MapSet
	cls  *Classification
}

// Attach builds the live instance: an interpreter for the verified program,
// the constant actions extracted from it, and fresh map state.
func (s *Source) Attach() *Attached {
	return &Attached{
		vm:   s.verified.NewVM(),
		cls:  s.Classify(),
		maps: NewMapSet(s.Maps),
	}
}

// CheckResult is one programmable check's outcome.
type CheckResult struct {
	// Action is the canonicalized action word.
	Action uint32
	// Executed is the number of program instructions run (0 on a
	// constant-tier extraction hit).
	Executed int
	// ConstHit reports that the extracted constant action answered without
	// executing the program — the programmable bitmap-resolve path.
	ConstHit bool
}

// Check evaluates the policy for one call: an extracted constant answers
// without running the program.
func (a *Attached) Check(ctx *Ctx) CheckResult {
	if act, ok := a.cls.ConstAction(int32(ctx.Nr)); ok {
		return CheckResult{Action: act, ConstHit: true}
	}
	r, err := a.vm.Run(ctx, a.maps)
	if err != nil {
		// Unreachable for verified programs; fail closed if it ever fires.
		return CheckResult{Action: RetKillProcess, Executed: r.Executed}
	}
	return CheckResult{Action: r.Action, Executed: r.Executed}
}

// MustRun reports whether calls with this number must execute the program
// on every check (stateful or payload-dependent): the checker bypasses the
// decision plane and the SPT/VAT caches for them, because a cached allow
// would freeze a decision that mutable state is supposed to change.
func (a *Attached) MustRun(nr int32) bool { return a.cls.MustRun(nr) }

// ArgMask returns the argument-byte mask the decision may depend on for a
// stateless-tier number; the checker ORs it into the SPT argument bitmask
// so the VAT key discriminates every byte the program reads.
func (a *Attached) ArgMask(nr int32) uint64 { return a.cls.ArgMask(nr) }

// Classification returns the per-nr tier table.
func (a *Attached) Classification() *Classification { return a.cls }

// Maps returns the live map state (shared, atomic).
func (a *Attached) Maps() *MapSet { return a.maps }

// ResetState zeroes the map state, starting a blank epoch in place.
func (a *Attached) ResetState() { a.maps.Reset() }

// NewCtx builds the service-layer view of one call: nr and args, native
// arch, no captured payload. (Payload words model deep-argument inspection
// for harnesses that capture them; the serving path does not.)
func NewCtx(nr int32, args [NumArgs]uint64) Ctx {
	return Ctx{Nr: uint32(nr), Arch: AuditArchX8664, Args: args}
}
