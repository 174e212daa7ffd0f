package concurrent

// The decision plane is the lock-free hit path of the concurrent checker: at
// SetProfile time the profile, the filter's constant-action bitmap, and the
// programmable policy's classification are compiled into one flat table —
// a dense per-syscall record holding, where provable, the entire decision.
// Check paths consult the plane before taking the generation's lock:
// syscalls whose outcome is a compile-time constant are answered with zero
// locks, zero map or table probes, and zero filter execution. An
// argument-checked syscall's record also points at its VAT table, once the
// locked path has created it, and checks probe that table with no lock
// under the table's seqlock (internal/cuckoo). Only misses, disturbed
// probes and must-run stateful programs take the lock.
//
// Soundness of the constants leans entirely on analyses that already
// exist: a record is constant only when seccomp.ComputeBitmap proved the
// whole filter chain argument-independent for that number AND the
// programmable classifier proved the program constant (or there is no
// program). The plane adds no new abstract interpretation — it fuses proofs
// computed at attach time into a single cache-friendly lookup. A lock-free
// VAT hit is sound because every set in a table was allowed by this
// generation's filter, and a seqlock-validated probe read it whole.
//
// Publication follows the package's epoch discipline: the plane is a field
// of the per-generation state behind the checker's atomic pointer. A hot
// swap builds the new plane off to the side and publishes it with the state
// in one atomic store. Records are immutable after construction except for
// three atomics — a hit counter (folded into Stats), the constAllow
// "seeded" latch described below, and the table pointer, stored once under
// the generation's lock and never replaced within a generation. A
// superseded plane is sealed: each counter is folded into the checker's
// running total and marked, and a late reader whose count lands on a marked
// counter retries on the new plane, so the old generation can be dropped
// without losing a check.

import (
	"sync/atomic"

	"draco/internal/core"
	"draco/internal/cuckoo"
	"draco/internal/ebpf"
	"draco/internal/hashes"
	"draco/internal/seccomp"
)

// Record kinds. fallthrough is the zero value: any syscall the plane
// cannot prove constant goes to the locked path.
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

// planeRecord is one syscall's compiled decision-plane entry: its VAT
// table once there is one, and the precomputed outcome when the decision is
// constant.
type planeRecord struct {
	kind uint8
	// steady is the outcome a fast hit returns, byte-identical to what the
	// locked path would report in steady state, with FastHit set.
	steady core.Outcome
	// hits counts lock-free decisions — constants, or VAT hits for a
	// fallthrough record — folded into Stats by kind. sealBit is set once
	// the generation is retired and the count folded.
	hits atomic.Uint64
	// table is the syscall's VAT table in the generation's checker. The
	// locked path stores it, under the lock, when the table exists; until
	// then (and always under NoFastPath) it is nil and nothing is probed
	// lock-free.
	table atomic.Pointer[cuckoo.Table]
	// seeded latches after the first locked check of a constAllow syscall.
	// The first check must take the locked path: it runs the filter once
	// (ticking FilterRuns and reporting FilterRan/BitmapHit exactly like
	// the sequential checker's first check) and installs the SPT entry.
	// Once that is done, the steady outcome is fixed and the plane takes
	// over. The latch is a fidelity gate, not a synchronization point:
	// steady is immutable, and serving it a check early or late never
	// changes a decision, only which path reports it.
	seeded atomic.Bool
}

// sealBit marks a hit counter whose generation has been retired.
const sealBit = 1 << 63

// plane is the compiled per-generation decision table. Immutable after
// build except the per-record atomics.
type plane struct {
	records []planeRecord
	// enabled is false when the plane was built without constants
	// (non-bitmap execution, or fast path disabled): every record is then
	// fallthrough.
	enabled bool
	// probing publishes VAT tables to lock-free probes; false under
	// NoFastPath.
	probing bool
}

// buildPlane compiles the profile into the decision plane. bm is the
// shared filter's constant-action bitmap (nil below ExecBitmap), prog the
// generation's attached program (nil without one). When noFast is set
// every record is fallthrough and no table is published — the measurement
// baseline for the lock-free paths.
func buildPlane(p *seccomp.Profile, bm *seccomp.Bitmap, prog *ebpf.Attached, noFast bool) *plane {
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
	pl := &plane{records: make([]planeRecord, n), enabled: useBM, probing: !noFast}
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
// decision (the record's steady outcome, in place). Otherwise the call goes
// on to the VAT probe and the locked path — unless sealed, which says
// the generation was retired before the hit could be counted in it and the
// call must be redone on the checker's current state. Lock-free: one bounds
// check, one kind switch, one atomic add on the hit path.
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

// probe answers an argument-checked call from sid's VAT table with no
// lock: way is 1 or 2 for a validated hit, counted on the record, and pair
// is the probe's hash pair. Otherwise way is 0 and the call takes the
// locked path — unless sealed, which says the hit could not be counted in
// this retired generation and the call must be redone.
func (pl *plane) probe(sid int, args *hashes.Args) (way int, pair hashes.Pair, sealed bool) {
	if uint(sid) >= uint(len(pl.records)) {
		return 0, pair, false
	}
	rec := &pl.records[sid]
	t := rec.table.Load()
	if t == nil {
		return 0, pair, false
	}
	if way, pair = t.SharedLookup(args); way == 0 {
		return 0, pair, false
	}
	if rec.hits.Add(1)&sealBit != 0 {
		return 0, pair, true
	}
	return way, pair, false
}

// contains is probe for callers that need no hash value: H2 is computed
// only when H1's slot misses.
func (pl *plane) contains(sid int, args *hashes.Args) (found, sealed bool) {
	if uint(sid) >= uint(len(pl.records)) {
		return false, false
	}
	rec := &pl.records[sid]
	t := rec.table.Load()
	if t == nil || !t.SharedContains(args) {
		return false, false
	}
	if rec.hits.Add(1)&sealBit != 0 {
		return false, true
	}
	return true, false
}

// noteLocked records that a locked check of sid completed with out on chk,
// under the generation's lock. It seeds a constAllow record — the locked
// check ran the filter and installed the SPT entry, so the steady outcome
// is live from now on — and publishes a syscall's VAT table to lock-free
// probes the first time an argument-checked outcome shows the table exists.
func (pl *plane) noteLocked(sid int, out *core.Outcome, chk *core.Checker) {
	if uint(sid) >= uint(len(pl.records)) {
		return
	}
	rec := &pl.records[sid]
	switch {
	case rec.kind == planeConstAllow:
		if !rec.seeded.Load() {
			rec.seeded.Store(true)
		}
	case out.ArgsChecked && pl.probing && rec.table.Load() == nil:
		rec.table.Store(chk.VAT.Table(sid))
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

// fold adds h lock-free decisions of this record into s, charging exactly
// what the locked path would have charged: a constAllow hit is an SPT
// valid-bit hit; a constDeny hit is a filter run (bitmap-resolved, zero
// instructions) that denied; a fallthrough record's hits are VAT hits. The
// one thing that names the path is the class tally of the constants: either
// kind is a fast hit (steady.Class()). A VAT hit is a ClassVATHit on either
// path.
func (rec *planeRecord) fold(h uint64, s *Stats) {
	switch rec.kind {
	case planeConstAllow:
		s.SPTHits += h
		s.Classes[core.ClassFastHit] += h
	case planeConstDeny:
		s.FilterRuns += h
		s.Denied += h
		s.Classes[core.ClassFastHit] += h
	default:
		s.VATHits += h
		s.Classes[core.ClassVATHit] += h
	}
	s.Checks += h
}

// foldStats adds the live plane's lock-free decisions into s. The caller
// holds the checker's swap lock, so the plane cannot be sealed meanwhile.
func (pl *plane) foldStats(s *Stats) {
	for i := range pl.records {
		rec := &pl.records[i]
		rec.fold(rec.hits.Load(), s)
	}
}

// seal retires the plane: every counter is folded into s and marked in one
// exchange, so a hit is either in the folded count or sees the mark and is
// redone elsewhere — never both, never neither. Every record is sealed,
// since any fallthrough record may have a table.
func (pl *plane) seal(s *Stats) {
	for i := range pl.records {
		rec := &pl.records[i]
		rec.fold(rec.hits.Swap(sealBit), s)
	}
}

// FastStats summarizes the plane's behaviour for one generation.
type FastStats struct {
	// Hits is the number of checks the constant records answered. Lock-free
	// VAT hits are not among them: Stats counts those as VAT hits.
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
		if rec.kind == planeFallthrough {
			continue
		}
		if h := rec.hits.Load(); h&sealBit == 0 {
			fs.Hits += h
		}
		if rec.kind == planeConstAllow {
			fs.AllowRecords++
		} else {
			fs.DenyRecords++
		}
	}
	return fs
}
