package concurrent

// The decision plane is the lock-free fast path of the sharded checker:
// at SetProfile time the profile, the filter's constant-action bitmap, and
// the programmable policy's classification are compiled into one immutable
// flat table — a dense per-syscall record fusing the routing bitmask, the
// precomputed argument count, and (where provable) the entire decision.
// Check paths consult the plane before touching any shard: syscalls whose
// outcome is a compile-time constant are answered with zero locks, zero
// map or table probes, and zero filter execution. Only argument-checked
// syscalls and must-run stateful programs fall through to the locked
// shard path.
//
// Soundness leans entirely on analyses that already exist: a record is
// constant only when seccomp.ComputeBitmap proved the whole filter chain
// argument-independent for that number AND the programmable classifier
// proved the program constant (or there is no program). The plane adds no
// new abstract interpretation — it fuses proofs computed at attach time
// into a single cache-friendly lookup.
//
// Publication follows the package's epoch discipline: the plane is a field
// of the immutable per-generation state behind the checker's atomic
// pointer. A hot swap builds the new plane off to the side and publishes
// it with the state in one atomic store. Records are immutable after
// construction except for two atomics — a hit counter (folded into Stats)
// and the constAllow "seeded" latch described below — so readers never need
// fences beyond the state load itself. A superseded plane is sealed: each
// counter is folded into the checker's running total and marked, and a late
// reader whose count lands on a marked counter retries on the new plane, so
// the old generation can be dropped without losing a check.

import (
	"sync/atomic"

	"draco/internal/core"
	"draco/internal/ebpf"
	"draco/internal/seccomp"
)

// Record kinds. fallthrough is the zero value: any syscall the plane
// cannot prove constant routes to the locked shard path.
const (
	planeFallthrough uint8 = iota
	// planeConstAllow: the bitmap proved the chain returns an allowing
	// action, the profile has an ID-only rule (no argument bytes feed the
	// decision), and any attached program is constant-allow. Steady state
	// on the locked path is an SPT valid-bit hit; the plane serves that
	// exact outcome once seeded.
	planeConstAllow
	// planeConstDeny: the bitmap (possibly combined with a constant
	// program action) proved the chain denies regardless of arguments.
	// The locked path never caches denials, so every locked check would
	// produce the identical filter-ran outcome; the plane serves it from
	// check one with no seeding.
	planeConstDeny
)

// planeRecord is one syscall's compiled decision-plane entry: bitmask and
// argument count for routing, plus the precomputed outcome when the
// decision is constant.
type planeRecord struct {
	kind uint8
	// nargs is CountArgs(mask), precomputed at plane build.
	nargs uint8
	// shard is the syscall's shard under RouteBySyscall: a pure function of
	// the number, so it is hashed once at plane build instead of per check.
	shard uint16
	// mask is the rule's SPT Argument Bitmask (zero for ID-only and
	// unknown syscalls), read by shard routing instead of a masks slice.
	mask uint64
	// steady is the outcome a fast hit returns, byte-identical to what the
	// locked path would report in steady state, with FastHit set.
	steady core.Outcome
	// hits counts fast-path decisions; folded into Stats by kind. sealBit
	// is set once the generation is retired and the count folded.
	hits atomic.Uint64
	// seeded latches after the first locked check of a constAllow syscall.
	// The first check must take the locked path: it runs the filter once
	// (ticking FilterRuns and reporting FilterRan/BitmapHit exactly like
	// the sequential checker's first check) and installs the SPT entry.
	// Once any shard has done that, the steady outcome is fixed and the
	// plane takes over. The latch is a fidelity gate, not a
	// synchronization point: steady is immutable, and serving it a check
	// early or late never changes a decision, only which path reports it.
	seeded atomic.Bool
}

// sealBit marks a hit counter whose generation has been retired.
const sealBit = 1 << 63

// plane is the compiled per-generation decision table. Immutable after
// build except the per-record atomics.
type plane struct {
	records []planeRecord
	// enabled is false when the plane was built in pass-through mode
	// (non-bitmap execution, or fast path disabled): records then carry
	// only routing masks and every check falls through.
	enabled bool
}

// buildPlane compiles the profile into the decision plane. bm is the
// shared filter's constant-action bitmap (nil below ExecBitmap), prog the
// generation's attached program (nil without one). When noFast is set the
// plane still carries the routing masks but marks every record
// fallthrough — the measurement baseline for the fast path itself. Under
// RouteBySyscall every record also gets its shard among nShards.
func buildPlane(p *seccomp.Profile, bm *seccomp.Bitmap, prog *ebpf.Attached, noFast bool, nShards int, routing Routing) *plane {
	maxNum := 0
	for _, r := range p.Rules {
		if r.Syscall.Num > maxNum {
			maxNum = r.Syscall.Num
		}
	}
	n := maxNum + 1
	useBM := bm != nil && !noFast
	if useBM && n < seccomp.BitmapMaxNr {
		// Constant denials cover unlisted syscalls too: the profile's
		// default action resolves through the bitmap for every number in
		// range, so the plane spans the bitmap, not just the rule list.
		n = seccomp.BitmapMaxNr
	}
	pl := &plane{records: make([]planeRecord, n), enabled: useBM}
	if routing == RouteBySyscall && nShards > 1 {
		for sid := range pl.records {
			pl.records[sid].shard = uint16(sidShard(sid, nShards))
		}
	}
	for _, r := range p.Rules {
		if r.ChecksArgs() {
			rec := &pl.records[r.Syscall.Num]
			rec.mask = core.BitmaskFor(r)
			rec.nargs = uint8(core.CountArgs(rec.mask))
		}
	}
	if !useBM {
		return pl
	}
	var cls *ebpf.Classification
	if prog != nil {
		cls = prog.Classification()
	}
	for sid := range pl.records {
		compileRecord(&pl.records[sid], sid, p, bm, cls)
	}
	return pl
}

// compileRecord classifies one syscall number. The conditions mirror,
// case for case, the branches of core.Checker.Check/progPath/slowPath —
// a record is only non-fallthrough when every locked-path branch for this
// number is forced, so the plane's outcome is provably the locked one.
func compileRecord(rec *planeRecord, sid int, p *seccomp.Profile, bm *seccomp.Bitmap, cls *ebpf.Classification) {
	bmAct, known := bm.ConstAction(int32(sid))
	if !known {
		// The filter would actually execute instructions; the plane cannot
		// reproduce the Executed count without running it.
		return
	}
	nr := int32(sid)
	if cls != nil && cls.MustRun(nr) {
		// Stateful program: every check must execute it.
		return
	}
	// Resolve the program's contribution, if any.
	progConst := false
	var progAct uint32
	if cls != nil {
		switch cls.Class(nr) {
		case ebpf.ClassConstant:
			progConst = true
			progAct, _ = cls.ConstAction(nr)
		case ebpf.ClassStateless:
			// Argument-dependent program verdict: the locked path runs the
			// program per tuple (or caches through the VAT); never constant,
			// even under a bitmap-deny — slowPath consults the program and
			// charges its instructions before combining actions.
			return
		}
	}
	if progConst && !ebpf.Allows(progAct) {
		// Constant program deny: core.Checker.Check intercepts before the
		// tables and runs progPath every check — filter bitmap-resolves,
		// program const-resolves, actions combine, nothing is cached. That
		// outcome is identical on every check, so the plane serves it.
		act := seccomp.Combine(bmAct, seccomp.Action(progAct))
		rec.kind = planeConstDeny
		rec.steady = core.Outcome{
			FilterRan:    true,
			BitmapHit:    true,
			ProgRan:      true,
			ProgConstHit: true,
			Action:       act,
			Allowed:      act.Allows(),
			FastHit:      true,
		}
		return
	}
	if !bmAct.Allows() {
		// Constant whitelist deny (with an allowing constant program, or no
		// program). slowPath runs every check: bitmap-resolved filter,
		// const-resolved program, combined action denies, nothing cached.
		act := bmAct
		out := core.Outcome{
			FilterRan: true,
			BitmapHit: true,
			Action:    act,
			FastHit:   true,
		}
		if progConst {
			act = seccomp.Combine(bmAct, seccomp.Action(progAct))
			out.ProgRan = true
			out.ProgConstHit = true
			out.Action = act
		}
		if act.Allows() {
			// Combine cannot turn two actions into an allow, but keep the
			// guard: an allowing combination would be cacheable state the
			// deny record must not claim.
			return
		}
		rec.kind = planeConstDeny
		rec.steady = out
		return
	}
	// Allowing constant action. The plane may only take over the steady
	// state the locked path reaches: an ID-only SPT valid-bit hit. That
	// requires a profile rule (no rule means slowPath never caches and
	// re-runs the filter forever) whose decision consumes no argument
	// bytes — neither the rule's own checked args nor a stateless
	// program's mask (handled above: stateless returns early).
	rule, ok := p.RuleFor(sid)
	if !ok || rule.ChecksArgs() {
		return
	}
	rec.kind = planeConstAllow
	rec.steady = core.Outcome{
		SPTHit:  true,
		Allowed: true,
		Action:  seccomp.ActAllow,
		FastHit: true,
	}
}

// fastCheck resolves one call from the plane: a non-nil outcome is the
// decision (the record's steady outcome, in place). Otherwise the call takes
// the locked shard path — unless sealed, which says the generation was
// retired before the hit could be counted in it and the call must be redone
// on the checker's current state. Lock-free: one bounds check, one kind
// switch, one atomic add on the hit path.
func (pl *plane) fastCheck(sid int) (hit *core.Outcome, sealed bool) {
	if uint(sid) >= uint(len(pl.records)) {
		return nil, false
	}
	rec := &pl.records[sid]
	switch rec.kind {
	case planeConstAllow:
		if !rec.seeded.Load() {
			return nil, false
		}
		fallthrough
	case planeConstDeny:
		if rec.hits.Add(1)&sealBit != 0 {
			return nil, true
		}
		return &rec.steady, false
	}
	return nil, false
}

// noteLocked records that a locked check of sid completed, seeding its
// constAllow record: the locked check ran the filter and installed the
// SPT entry, so the steady outcome is live from now on.
func (pl *plane) noteLocked(sid int) {
	if uint(sid) >= uint(len(pl.records)) {
		return
	}
	rec := &pl.records[sid]
	if rec.kind == planeConstAllow && !rec.seeded.Load() {
		rec.seeded.Store(true)
	}
}

// resolved reports whether the plane answers sid without the locked path.
// constAllow counts even before seeding: the syscall is plane-destined
// after its single locked warm-up check.
func (pl *plane) resolved(sid int) bool {
	if uint(sid) >= uint(len(pl.records)) {
		return false
	}
	return pl.records[sid].kind != planeFallthrough
}

// mask returns the routing bitmask for sid (zero for ID-only/unknown).
func (pl *plane) maskOf(sid int) uint64 {
	if uint(sid) >= uint(len(pl.records)) {
		return 0
	}
	return pl.records[sid].mask
}

// fold adds h fast-path decisions of this record into s, charging exactly
// what the locked path would have charged: a constAllow hit is an SPT
// valid-bit hit; a constDeny hit is a filter run (bitmap-resolved, zero
// instructions) that denied. The one thing that names the path is the
// class tally: either kind is a fast hit (steady.Class()).
func (rec *planeRecord) fold(h uint64, s *Stats) {
	switch rec.kind {
	case planeConstAllow:
		s.SPTHits += h
	case planeConstDeny:
		s.FilterRuns += h
		s.Denied += h
	default:
		return
	}
	s.Checks += h
	s.Classes[core.ClassFastHit] += h
}

// foldStats adds the live plane's fast-path decisions into s. The caller
// holds the checker's swap lock, so the plane cannot be sealed meanwhile.
func (pl *plane) foldStats(s *Stats) {
	for i := range pl.records {
		rec := &pl.records[i]
		rec.fold(rec.hits.Load(), s)
	}
}

// seal retires the plane: every counter is folded into s and marked in one
// exchange, so a hit is either in the folded count or sees the mark and is
// redone elsewhere — never both, never neither.
func (pl *plane) seal(s *Stats) {
	for i := range pl.records {
		rec := &pl.records[i]
		if rec.kind != planeFallthrough {
			rec.fold(rec.hits.Swap(sealBit), s)
		}
	}
}

// FastStats summarizes the plane's behaviour for one generation.
type FastStats struct {
	// Hits is the number of checks answered without locks.
	Hits uint64
	// AllowRecords/DenyRecords count compiled constant records.
	AllowRecords, DenyRecords int
	// Enabled reports whether the fast path was active (bitmap execution
	// and not disabled).
	Enabled bool
}

// fastStats gathers the plane summary.
func (pl *plane) fastStats() FastStats {
	fs := FastStats{Enabled: pl.enabled}
	for i := range pl.records {
		rec := &pl.records[i]
		if h := rec.hits.Load(); h&sealBit == 0 {
			fs.Hits += h
		}
		switch rec.kind {
		case planeConstAllow:
			fs.AllowRecords++
		case planeConstDeny:
			fs.DenyRecords++
		}
	}
	return fs
}
