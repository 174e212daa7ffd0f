// Package concurrent makes Draco's software checker safe for many callers.
//
// The sequential core.Checker is a per-process model: one SPT, one VAT, no
// locks. A long-running enforcement service (cmd/dracod) instead needs one
// shared table serving checks from many goroutines while the profile can be
// hot-swapped underneath. This package provides that layer:
//
//   - A read-mostly profile state behind an atomic pointer. Check paths
//     load the pointer once and never block on profile reloads; SetProfile
//     builds a whole new state, swaps it in, then seals the old one: its
//     counters are folded into a running total and the state is dropped.
//     An in-flight check either finishes against the state it started with
//     before the seal, or finds it sealed and starts over on the new one.
//   - One sequential core.Checker per generation, under one mutex: the
//     generation's single SPT and VAT, as the paper's software Draco keeps
//     one of each per process. It answers misses and denials, in call
//     order, so the checker reproduces the sequential checker's decisions
//     bit for bit — including the evictions that 2-ary cuckoo tables at
//     0.5 load actually perform, and the map updates of stateful programs.
//   - A lock-free hit path (plane.go). Constant decisions come straight
//     from the generation's decision plane. An argument-checked call probes
//     its syscall's VAT table with no lock: the plane record points at the
//     table, and the table's seqlock (internal/cuckoo) validates the probe.
//     Only a miss, or a probe a writer disturbed, takes the lock and runs
//     core.Checker, which fills the table.
//
// The differential tests in this package prove, on full workload traces,
// that every path answers what the sequential checker answers.
package concurrent

import (
	"sync"
	"sync/atomic"

	"draco/internal/core"
	"draco/internal/ebpf"
	"draco/internal/hashes"
	"draco/internal/seccomp"
)

// Routing is ignored: a generation has one checker, so there is nothing to
// route between.
//
// Deprecated: kept only for the contract benchmark, which still sets
// Config.Routing; it goes with ROADMAP item 1(a).
type Routing int

// RouteBySyscall is the zero Routing.
//
// Deprecated: see Routing.
const RouteBySyscall Routing = 0

// Call names one system call invocation in a batch.
type Call struct {
	SID  int
	Args hashes.Args
}

// Stats aggregates checker behaviour; it is core.Stats summed across
// profile generations.
type Stats = core.Stats

// Outcome is the per-check result, identical to the sequential checker's.
type Outcome = core.Outcome

// state is one immutable profile generation. All fields except chk, sealed
// and the plane records' atomics are read-only after construction, so check
// paths may use them without synchronization.
type state struct {
	profile *seccomp.Profile
	gen     uint64
	// plane is the generation's decision plane (plane.go): one flat
	// per-syscall record holding the syscall's VAT table once the locked
	// path has created it, and the provably constant decisions, all served
	// before the lock is taken.
	plane *plane
	// mu guards chk and sealed.
	mu sync.Mutex
	// chk is the generation's sequential checker: its one SPT and VAT, and
	// its attached programmable policy, whose fresh map epoch starts with
	// the generation as its empty VAT does.
	chk *core.Checker
	// sealed is set when the generation is retired and its statistics
	// folded into the checker's total: a check that finds it set must be
	// redone on the checker's current state.
	sealed bool
}

// newState builds one generation on the bitmap tier: the filter's
// constant-action bitmap and the program's extracted constants both feed
// the decision plane.
func newState(p *seccomp.Profile, gen uint64, noFast bool) (*state, error) {
	f, err := seccomp.NewFilterMode(p, seccomp.ShapeLinear, seccomp.ExecBitmap)
	if err != nil {
		return nil, err
	}
	var prog *ebpf.Attached
	if src := p.Programmable; src != nil {
		prog = src.Attach()
	}
	chk := core.NewChecker(p, seccomp.Chain{f})
	chk.Prog = prog
	// Compile the decision plane from the same attach-time proofs the
	// filter and program carry.
	return &state{profile: p, gen: gen, plane: buildPlane(p, f.Bitmap(), prog, noFast), chk: chk}, nil
}

// checkLocked runs one call through the generation's sequential checker
// under its lock. ok is false when st was sealed: it was retired under the
// call, which must be redone on the checker's current state.
func (st *state) checkLocked(sid int, args *hashes.Args) (out core.Outcome, ok bool) {
	st.mu.Lock()
	if st.sealed {
		st.mu.Unlock()
		return out, false
	}
	out = st.chk.Check(sid, *args)
	st.plane.noteLocked(sid, &out, st.chk)
	st.mu.Unlock()
	return out, true
}

// Checker is a concurrency-safe Draco checker: any number of goroutines may
// call Check/CheckBatch while another reloads the profile with SetProfile.
type Checker struct {
	state atomic.Pointer[state]
	// mu serializes profile swaps and guards folded.
	mu sync.Mutex
	// folded is the statistics of every superseded generation, so Stats
	// stays cumulative across hot swaps without keeping the generations.
	folded Stats
	// noFast disables the lock-free paths across every generation this
	// checker builds: the measurement baseline for the fast path.
	noFast bool
}

// Config bundles the knobs of a checker. The zero value is the serving
// configuration: the bitmap filter tier with the lock-free paths enabled.
type Config struct {
	// Shards is ignored: a generation has one checker under one lock.
	//
	// Deprecated: kept only for the contract benchmark, which still sets
	// it; it goes with ROADMAP item 1(a).
	Shards int
	// Routing is ignored, like Shards.
	//
	// Deprecated: see Shards.
	Routing Routing
	// Mode is ignored: every generation runs the bitmap filter tier
	// (seccomp.ExecBitmap) and extracts the program's constant actions.
	//
	// Deprecated: see Shards.
	Mode seccomp.ExecMode
	// NoFastPath disables the lock-free paths — the decision plane's
	// constants and the lock-free VAT probe — forcing every check through
	// the locked path: the reference the plane differential test compares
	// against. Decisions are identical either way.
	NoFastPath bool
}

// NewCheckerConfig builds a checker from a Config; the config survives
// SetProfile/Reset rebuilds.
func NewCheckerConfig(p *seccomp.Profile, cfg Config) (*Checker, error) {
	st, err := newState(p, 1, cfg.NoFastPath)
	if err != nil {
		return nil, err
	}
	c := &Checker{noFast: cfg.NoFastPath}
	c.state.Store(st)
	return c, nil
}

// Check validates one system call. Safe for concurrent use.
//
// The decision plane answers first: a check whose outcome was proven
// constant at SetProfile time costs one atomic state load and no locks,
// table probes, or filter execution. An argument-checked call then probes
// its syscall's VAT table without the lock, and a validated hit is the
// locked path's VAT hit outcome, byte for byte. Everything else takes the
// locked path, which afterwards seeds the plane (noteLocked):
// constant-allow syscalls hand over once their first check has warmed the
// tables, and a syscall's new VAT table is published to lock-free probes.
// A check that loses the race with a profile swap — its generation was
// retired before it could be counted there — is redone on the successor,
// which the swap published first.
func (c *Checker) Check(sid int, args hashes.Args) core.Outcome {
	st := c.state.Load()
	hit, sealed := st.plane.fastCheck(sid)
	if hit != nil {
		return *hit
	}
	if !sealed {
		way, pair, sealed := st.plane.probe(sid, &args)
		if way != 0 {
			return vatHit(way, pair)
		}
		if !sealed {
			if out, ok := st.checkLocked(sid, &args); ok {
				return out
			}
		}
	}
	// st was retired under this call, so its successor is published.
	return c.Check(sid, args)
}

// CheckDecision is Check for callers that answer with the decision alone.
// A constant record answers with its decision, and a lock-free VAT probe
// computes H2 only when H1's slot misses, since a hit needs no hash value.
// The decisions are Check's, call for call.
func (c *Checker) CheckDecision(sid int, args *hashes.Args) core.Decision {
	st := c.state.Load()
	hit, sealed := st.plane.fastCheck(sid)
	if hit != nil {
		return hit.Decision()
	}
	if !sealed {
		found, sealed := st.plane.contains(sid, args)
		if found {
			return vatHitDecision
		}
		if !sealed {
			if out, ok := st.checkLocked(sid, args); ok {
				return out.Decision()
			}
		}
	}
	return c.CheckDecision(sid, args)
}

// vatHit is the outcome core.Checker reports for a VAT hit found under way
// (1 or 2) of pair: the lock-free probe's answer is the same bytes.
func vatHit(way int, pair hashes.Pair) core.Outcome {
	out := core.Outcome{
		Allowed:     true,
		Action:      seccomp.ActAllow,
		SPTHit:      true,
		ArgsChecked: true,
		VATHit:      true,
		Hash:        pair.H1,
		Pair:        pair,
	}
	if way == 2 {
		out.Hash = pair.H2
	}
	return out
}

// vatHitDecision is a VAT hit's decision: allowed, served by the tables.
var vatHitDecision = core.Decision{Allowed: true, Cached: true, Action: seccomp.ActAllow}

// CheckBatch validates a batch of calls, amortizing the state load and the
// lock: whatever the lock-free paths cannot answer is checked under one
// lock per batch, not one per call (the AnyCall-style batching the serving
// layer exposes). Results are returned in call order. dst is reused when it
// has sufficient capacity.
func (c *Checker) CheckBatch(calls []Call, dst []core.Outcome) []core.Outcome {
	if cap(dst) < len(calls) {
		dst = make([]core.Outcome, len(calls))
	}
	dst = dst[:len(calls)]
	c.checkBatch(calls, batchDst{outs: dst})
	return dst
}

// CheckBatchDecisions is CheckBatch for callers that answer with the
// decision alone: each result is written straight into dst as the four
// fields of its outcome, with no per-call Outcome scratch in between, and
// lock-free VAT probes compute H2 only when H1's slot misses.
func (c *Checker) CheckBatchDecisions(calls []Call, dst []core.Decision) []core.Decision {
	if cap(dst) < len(calls) {
		dst = make([]core.Decision, len(calls))
	}
	dst = dst[:len(calls)]
	c.checkBatch(calls, batchDst{decs: dst})
	return dst
}

// batchDst is where a batch's results go: outs, or decs when it is non-nil.
// Either is already sized to the batch.
type batchDst struct {
	outs []core.Outcome
	decs []core.Decision
}

func (d batchDst) set(i int, out *core.Outcome) {
	if d.decs != nil {
		d.decs[i] = out.Decision()
		return
	}
	d.outs[i] = *out
}

// probe answers call i from its syscall's VAT table without the lock, the
// way Check (whole outcomes) or CheckDecision (decisions) does.
// served reports a validated hit written to dst; sealed, that st was
// retired before the hit could be counted in it.
func (d batchDst) probe(st *state, cl *Call, i int) (served, sealed bool) {
	if d.decs != nil {
		served, sealed = st.plane.contains(cl.SID, &cl.Args)
		if served {
			d.decs[i] = vatHitDecision
		}
		return served, sealed
	}
	way, pair, sealed := st.plane.probe(cl.SID, &cl.Args)
	if way != 0 {
		d.outs[i] = vatHit(way, pair)
	}
	return way != 0, sealed
}

// check is the batch paths' one-by-one fallback: a full Check of call i.
func (c *Checker) check(calls []Call, dst batchDst, i int) {
	if dst.decs != nil {
		dst.decs[i] = c.CheckDecision(calls[i].SID, &calls[i].Args)
		return
	}
	dst.outs[i] = c.Check(calls[i].SID, calls[i].Args)
}

func (c *Checker) checkBatch(calls []Call, dst batchDst) {
	if len(calls) == 0 {
		return
	}
	// Service-sized batches keep their residue on the stack: no per-batch
	// heap allocation.
	var residueA [batchStack]int32
	residue := residueA[:]
	if len(calls) > batchStack {
		residue = make([]int32, len(calls))
	}
	c.drainTo(c.state.Load(), calls, dst, residue)
}

// drainTo is checkBatch on a state the caller names. A first pass answers
// what it can without the lock — plane constants, and validated lock-free
// VAT hits — and lists the rest, in submission order, in residue (sized to
// the batch). Once a call of a syscall falls through to the residue, every
// later call of that syscall in the batch falls through too (the fell
// bitset): the residue's inserts, and the evictions they cause, then reach
// later calls in submission order, as in a sequential run. The residue is
// then drained in order under one lock, so a stateful program's map
// updates interleave exactly as submitted; its must-run syscalls bypass the
// tables and always land there. Calls that find st retired under them — a
// sealed plane counter or a sealed generation — are redone one by one on
// the successor.
func (c *Checker) drainTo(st *state, calls []Call, dst batchDst, residue []int32) {
	var fell [fellWords]uint64
	n := 0
	for i := range calls {
		cl := &calls[i]
		w, bit := uint(cl.SID)/64, uint64(1)<<(uint(cl.SID)%64)
		tracked := w < fellWords
		hit, sealed := st.plane.fastCheck(cl.SID)
		served := hit != nil
		switch {
		case served:
			dst.set(i, hit)
		case !sealed && tracked && fell[w]&bit == 0:
			served, sealed = dst.probe(st, cl, i)
		}
		if sealed {
			c.check(calls, dst, i)
		}
		if served || sealed {
			continue
		}
		if tracked {
			fell[w] |= bit
		}
		residue[n] = int32(i)
		n++
	}
	if n == 0 {
		return
	}
	residue = residue[:n]
	st.mu.Lock()
	sealed := st.sealed
	if !sealed {
		for _, i := range residue {
			cl := &calls[i]
			out := st.chk.Check(cl.SID, cl.Args)
			dst.set(int(i), &out)
			st.plane.noteLocked(cl.SID, &out, st.chk)
		}
	}
	st.mu.Unlock()
	if sealed {
		for _, i := range residue {
			c.check(calls, dst, int(i))
		}
	}
}

// fellWords sizes drainTo's fell bitset: one bit per syscall number below
// the bitmap's range. A VAT table beyond it (a rule for a higher number) is
// never probed lock-free from a batch; its calls take the locked drain.
const fellWords = seccomp.BitmapMaxNr / 64

// batchStack is the largest batch checkBatch handles without heap
// allocation: its residue list lives on the stack.
const batchStack = 512

// SetProfile hot-swaps the profile: a fresh state (empty SPT/VAT, newly
// compiled filters) is built off to the side and atomically published, and
// the superseded generation is sealed and dropped. Checks that started
// against the old generation either complete and are counted there before
// it is sealed, or are redone on the new one.
func (c *Checker) SetProfile(p *seccomp.Profile) error {
	return c.swap(p)
}

// Reset clears all cached state (the SPT and VAT) while keeping the current
// profile, like core.Checker.Reset on a security-epoch change.
func (c *Checker) Reset() error {
	return c.swap(nil)
}

// swap builds and publishes the next generation for p (nil keeps the
// current profile) and retires the old one into folded.
func (c *Checker) swap(p *seccomp.Profile) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.state.Load()
	if p == nil {
		p = old.profile
	}
	st, err := newState(p, old.gen+1, c.noFast)
	if err != nil {
		return err
	}
	// Publish before sealing: whoever then finds the old generation sealed
	// is guaranteed to load the new one.
	c.state.Store(st)
	old.mu.Lock()
	c.folded.Add(old.chk.Stats)
	old.sealed = true
	old.mu.Unlock()
	old.plane.seal(&c.folded)
	return nil
}

// Profile returns the currently active profile.
func (c *Checker) Profile() *seccomp.Profile {
	return c.state.Load().profile
}

// Generation returns the current profile generation, starting at 1 and
// incremented on every SetProfile/Reset.
func (c *Checker) Generation() uint64 {
	return c.state.Load().gen
}

// Stats sums checker statistics across all profile generations since
// construction. Lock-free hits are folded in as what the locked path would
// have charged (constant allows count as SPT hits, constant denies as
// filter runs that denied, VAT hits as VAT hits), so the totals are
// path-independent: fast path on or off, the same workload produces the
// same Stats — except the classes of plane constants, which are
// ClassFastHit to say which path served. A lock-free VAT hit is a
// ClassVATHit either way.
func (c *Checker) Stats() Stats {
	// Held throughout, so the generation read below stays the live one.
	c.mu.Lock()
	defer c.mu.Unlock()
	total := c.folded
	st := c.state.Load()
	st.mu.Lock()
	total.Add(st.chk.Stats)
	st.mu.Unlock()
	st.plane.foldStats(&total)
	return total
}

// FastResolved reports whether the decision plane answers sid with a
// constant: the plane coverage the benchmarks report.
func (c *Checker) FastResolved(sid int) bool {
	return c.state.Load().plane.resolved(sid)
}

// FastStats summarizes the current generation's decision plane: compiled
// record counts and lock-free hits served. Retired generations' hits are
// already folded into Stats.
func (c *Checker) FastStats() FastStats {
	return c.state.Load().plane.fastStats()
}

// VATBytes returns the memory footprint of the current generation's VAT.
func (c *Checker) VATBytes() int {
	st := c.state.Load()
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.chk.VAT.SizeBytes()
}
