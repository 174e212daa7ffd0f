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
//   - An N-way sharded VAT. A check routes to a shard by a CRC-64/ECMA
//     routing key, and each shard is an independent core.Checker (own SPT,
//     own VAT sections, own compiled filter chain) guarded by one mutex.
//
// Two routing keys are offered. The default, RouteBySyscall, hashes the
// syscall ID alone (once per syscall, when the state is built: a check
// reads the shard from the syscall's plane record), so a syscall's whole
// cuckoo table lives in exactly one shard and the sharded checker
// reproduces the sequential checker's decisions bit for bit — including
// the cache evictions that 2-ary cuckoo tables at 0.5 load actually
// perform. RouteByArgs additionally mixes in
// the argument-set hash (computed under the syscall's SPT Argument Bitmask,
// the same masked-byte hash family the VAT probes with), spreading a hot
// syscall's argument sets across shards for maximum parallelism; allow/deny
// decisions are still always identical to the sequential checker (cached
// entries were validated by the same deterministic filter), but splitting a
// syscall's table into per-shard sections changes cuckoo eviction timing,
// so a decision can be served cached where the sequential checker would
// re-run the filter. The differential tests in this package prove both
// properties on full workload traces.
package concurrent

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"draco/internal/core"
	"draco/internal/ebpf"
	"draco/internal/hashes"
	"draco/internal/seccomp"
)

// DefaultShards is the shard count used when a caller passes 0: enough to
// keep a busy multi-core service out of lock convoys without bloating the
// per-tenant footprint.
const DefaultShards = 8

// MaxShards bounds the shard fan-out; beyond this the per-shard tables are
// so sparse that memory overhead dominates any contention win.
const MaxShards = 1024

// Routing selects the shard-routing key.
type Routing int

const (
	// RouteBySyscall routes by CRC-64 of the syscall ID: each syscall's
	// VAT table lives wholly in one shard, which preserves the sequential
	// checker's allow/deny/cached decisions exactly.
	RouteBySyscall Routing = iota
	// RouteByArgs routes by CRC-64 of the syscall ID plus the masked
	// argument-set hash: a hot syscall's argument sets spread across
	// shards. Decision-exact but cuckoo-eviction-timing-inexact: allow/
	// deny/action always match the sequential checker, while the cached
	// flag may differ around evictions because a syscall's table is split
	// into per-shard sections (see DESIGN.md §7; pinned at the registry
	// level by engine.TestDifferentialArgsRoutingDecisionExact).
	RouteByArgs
)

func (r Routing) String() string {
	switch r {
	case RouteBySyscall:
		return "syscall"
	case RouteByArgs:
		return "args"
	default:
		return fmt.Sprintf("Routing(%d)", int(r))
	}
}

// Call names one system call invocation in a batch.
type Call struct {
	SID  int
	Args hashes.Args
}

// Stats aggregates checker behaviour; it is core.Stats summed across shards
// and across profile generations.
type Stats = core.Stats

// Outcome is the per-check result, identical to the sequential checker's.
type Outcome = core.Outcome

// shard is one slice of the sharded VAT: an independent sequential checker
// under its own lock.
type shard struct {
	mu  sync.Mutex
	chk *core.Checker
	// sealed is set, under mu, when the shard's generation is retired and
	// its statistics folded into the checker's total: a check that locks a
	// sealed shard must be redone on the checker's current state.
	sealed bool
}

// state is one immutable profile generation. All fields except the shards'
// interior are read-only after construction, so check paths may use them
// without synchronization.
type state struct {
	profile *seccomp.Profile
	gen     uint64
	routing Routing
	mode    seccomp.ExecMode
	// plane is the generation's compiled decision plane (plane.go): one
	// flat per-syscall record fusing the routing bitmask, the precomputed
	// argument count, and — under ExecBitmap — the provably constant
	// decisions, served lock-free before any shard is touched.
	plane  *plane
	shards []*shard
	// prog is the generation's attached programmable policy (nil without
	// one). Its map state is shared by every shard — slots are atomic, so
	// the shard locks need not cover it — and a profile swap builds a fresh
	// Attached, which starts a blank map epoch exactly as the swap starts
	// empty VAT shards.
	prog *ebpf.Attached
	// serialBatch forces CheckBatch to process calls in submission order:
	// set when the program has stateful (must-run) syscall numbers, whose
	// map updates would otherwise be reordered by the shard-grouped drain.
	serialBatch bool
}

func newState(p *seccomp.Profile, nShards int, routing Routing, mode seccomp.ExecMode, gen uint64, noFast bool) (*state, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	st := &state{profile: p, gen: gen, routing: routing, mode: mode, shards: make([]*shard, nShards)}
	// Filters are immutable and safe for concurrent use, so one compiled
	// filter (with its pre-decoded op stream and, under ExecBitmap, its
	// constant-action bitmap) is shared by every shard's chain: compiling —
	// and especially computing the bitmap — once per state, not per shard.
	f, err := seccomp.NewFilterMode(p, seccomp.ShapeLinear, mode)
	if err != nil {
		return nil, err
	}
	if src := p.Programmable; src != nil {
		st.prog = src.Attach(ebpf.AttachOpts{
			Interp:    mode == seccomp.ExecInterp,
			NoExtract: mode != seccomp.ExecBitmap,
		})
		_, _, mustRun := st.prog.Classification().Counts()
		st.serialBatch = mustRun > 0
	}
	// Compile the decision plane from the same attach-time proofs the
	// filter and program carry: f.Bitmap() is nil below ExecBitmap, which
	// builds the plane in pass-through (routing masks only) form.
	st.plane = buildPlane(p, f.Bitmap(), st.prog, noFast, nShards, routing)
	for i := range st.shards {
		chk := core.NewChecker(p, seccomp.Chain{f})
		chk.Prog = st.prog
		st.shards[i] = &shard{chk: chk}
	}
	return st, nil
}

// mask returns the argument bitmask governing a syscall's routing.
func (st *state) mask(sid int) uint64 {
	return st.plane.maskOf(sid)
}

// shardIndex routes a call to its shard. Under RouteBySyscall the shard is
// the one the plane record stored at build (sidShard for numbers beyond the
// plane); under RouteByArgs it is CRC-64 over the syscall ID and the H1
// hash of the argument bytes selected by the syscall's bitmask, hashed per
// call. ID-only syscalls always route by ID alone.
func (st *state) shardIndex(sid int, args *hashes.Args) int {
	n := len(st.shards)
	if n == 1 {
		return 0
	}
	if st.routing == RouteBySyscall {
		if uint(sid) < uint(len(st.plane.records)) {
			return int(st.plane.records[sid].shard)
		}
		return sidShard(sid, n)
	}
	var key [16]byte
	binary.LittleEndian.PutUint64(key[:8], uint64(sid))
	if m := st.mask(sid); m != 0 {
		binary.LittleEndian.PutUint64(key[8:], hashes.ArgSet(*args, m).H1)
	}
	return int(hashes.Sum64(key[:]) % uint64(n))
}

// sidShard is RouteBySyscall's routing function: CRC-64/ECMA of the syscall
// ID, reduced to the shard count.
func sidShard(sid, nShards int) int {
	var key [8]byte
	binary.LittleEndian.PutUint64(key[:], uint64(sid))
	return int(hashes.Sum64(key[:]) % uint64(nShards))
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
	// noFast disables the decision plane across every generation this
	// checker builds: the measurement baseline for the fast path.
	noFast bool
}

// NewChecker builds a sharded checker for a profile with the default
// RouteBySyscall routing. shards must be a positive power of two up to
// MaxShards (0 selects DefaultShards); a power of two keeps shard selection
// a mask-and-index like the VAT itself.
func NewChecker(p *seccomp.Profile, shards int) (*Checker, error) {
	return NewCheckerRouted(p, shards, RouteBySyscall)
}

// NewCheckerRouted builds a sharded checker with an explicit routing key
// and the default compiled filter execution.
func NewCheckerRouted(p *seccomp.Profile, shards int, routing Routing) (*Checker, error) {
	return NewCheckerExec(p, shards, routing, seccomp.ExecCompiled)
}

// NewCheckerExec builds a sharded checker with explicit routing and filter
// execution mode; the mode survives SetProfile/Reset rebuilds.
func NewCheckerExec(p *seccomp.Profile, shards int, routing Routing, mode seccomp.ExecMode) (*Checker, error) {
	return NewCheckerConfig(p, Config{Shards: shards, Routing: routing, Mode: mode})
}

// Config bundles the optional knobs of a sharded checker. The zero value
// selects the defaults of NewChecker: DefaultShards, RouteBySyscall,
// compiled filter execution, decision plane enabled.
type Config struct {
	// Shards is the VAT shard fan-out (0 selects DefaultShards; must be a
	// power of two up to MaxShards).
	Shards int
	// Routing selects the shard-routing key.
	Routing Routing
	// Mode is the filter execution mode; the decision plane's constant
	// records exist only under seccomp.ExecBitmap.
	Mode seccomp.ExecMode
	// NoFastPath disables the lock-free decision plane, forcing every
	// check through the locked shard path: the baseline the fastpath
	// benchmark measures against. Decisions are identical either way.
	NoFastPath bool
}

// NewCheckerConfig builds a sharded checker from a Config; the config
// survives SetProfile/Reset rebuilds.
func NewCheckerConfig(p *seccomp.Profile, cfg Config) (*Checker, error) {
	shards := cfg.Shards
	if shards == 0 {
		shards = DefaultShards
	}
	if shards < 1 || shards > MaxShards || shards&(shards-1) != 0 {
		return nil, fmt.Errorf("concurrent: shard count %d not a power of two in [1,%d]", shards, MaxShards)
	}
	if cfg.Routing != RouteBySyscall && cfg.Routing != RouteByArgs {
		return nil, fmt.Errorf("concurrent: unknown routing %d", int(cfg.Routing))
	}
	st, err := newState(p, shards, cfg.Routing, cfg.Mode, 1, cfg.NoFastPath)
	if err != nil {
		return nil, err
	}
	c := &Checker{noFast: cfg.NoFastPath}
	c.state.Store(st)
	return c, nil
}

// Check validates one system call. Safe for concurrent use.
//
// The fast path consults the generation's decision plane first: a check
// whose outcome was proven constant at SetProfile time is answered with
// one atomic state load and no locks, table probes, or filter execution.
// Everything else takes the locked shard path, which afterwards seeds the
// plane (noteLocked) so constant-allow syscalls hand over once their
// first check has warmed the tables. A check that loses the race with a
// profile swap — its generation was retired before it could be counted
// there — is redone on the successor, which the swap published first.
func (c *Checker) Check(sid int, args hashes.Args) core.Outcome {
	st := c.state.Load()
	hit, sealed := st.plane.fastCheck(sid)
	if hit != nil {
		return *hit
	}
	if !sealed {
		sh := st.shards[st.shardIndex(sid, &args)]
		sh.mu.Lock()
		if !sh.sealed {
			out := sh.chk.Check(sid, args)
			sh.mu.Unlock()
			st.plane.noteLocked(sid)
			return out
		}
		sh.mu.Unlock()
	}
	// st was retired under this call, so its successor is published.
	return c.Check(sid, args)
}

// CheckBatch validates a batch of calls, amortizing state loads and shard
// locking: each shard involved is locked once per batch, not once per call
// (the AnyCall-style batching the serving layer exposes). Results are
// returned in call order. dst is reused when it has sufficient capacity.
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
// fields of its outcome, with no per-call Outcome scratch in between.
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

// check is the batch paths' one-by-one fallback: a full Check of call i.
func (c *Checker) check(calls []Call, dst batchDst, i int) {
	out := c.Check(calls[i].SID, calls[i].Args)
	dst.set(i, &out)
}

func (c *Checker) checkBatch(calls []Call, dst batchDst) {
	if len(calls) == 0 {
		return
	}
	st := c.state.Load()
	if len(st.shards) == 1 {
		sh := st.shards[0]
		sh.mu.Lock()
		if sh.sealed {
			// Retired before anything was done: redo on the successor.
			sh.mu.Unlock()
			c.checkBatch(calls, dst)
			return
		}
		for i := range calls {
			cl := &calls[i]
			// Plane-resolved calls skip the checker even under the batch
			// lock: the decision needs no table, and the per-record hit
			// counter keeps Stats exact.
			switch hit, sealed := st.plane.fastCheck(cl.SID); {
			case hit != nil:
				dst.set(i, hit)
			case sealed:
				c.check(calls, dst, i)
			default:
				out := sh.chk.Check(cl.SID, cl.Args)
				dst.set(i, &out)
				st.plane.noteLocked(cl.SID)
			}
		}
		sh.mu.Unlock()
		return
	}
	if st.serialBatch {
		// A stateful programmable policy makes batch order semantic: map
		// updates must interleave exactly as submitted, so the grouped drain
		// below (which reorders calls by shard) is not an option. Lock per
		// call, in order. Plane-resolved calls are constant — they neither
		// read nor write map state — so answering them lock-free preserves
		// the submission-order semantics of the rest.
		for i := range calls {
			c.check(calls, dst, i)
		}
		return
	}
	// Group call indices by shard with a two-pass counting sort, then drain
	// each group under one lock. Relative order within a shard is preserved
	// (the sort is stable), and calls on different shards touch disjoint
	// (syscall, argument-set) keys, so the outcomes match a sequential
	// left-to-right execution of the batch. Service-sized batches group
	// entirely in stack buffers: no per-shard slices, no per-batch heap
	// allocation.
	n := len(calls)
	var sidxA, orderA [batchStack]int32
	var sidx, order []int32
	if n <= batchStack {
		sidx, order = sidxA[:n], orderA[:n]
	} else {
		buf := make([]int32, 2*n)
		sidx, order = buf[:n], buf[n:]
	}
	// The counts buffer is sized to the fan-out: clearing it is part of
	// every batch's fixed cost, so small services (the common <= 64 shard
	// case) must not pay for a MaxShards-sized array.
	ns := len(st.shards)
	if ns <= smallShards {
		var counts [smallShards + 1]int32
		c.drainTo(st, calls, dst, sidx, order, counts[:ns+1])
	} else {
		var counts [MaxShards + 1]int32
		c.drainTo(st, calls, dst, sidx, order, counts[:ns+1])
	}
}

// drainGrouped is the grouped drain with whole outcomes as results, on a
// state the caller names: the handle tests use to drive a retired
// generation through it.
func (c *Checker) drainGrouped(st *state, calls []Call, dst []core.Outcome, sidx, order, counts []int32) {
	c.drainTo(st, calls, batchDst{outs: dst}, sidx, order, counts)
}

// drainTo is checkBatch's grouped path: plane-resolved calls are
// answered during the grouping pass itself (marked with shard index -1 so
// the sort skips them), then the residue is stable counting-sorted by
// shard (len(counts) == shards+1) and drained one lock per touched shard.
// Calls that find st retired under them — a sealed plane counter or a
// sealed shard — are redone one by one through Check.
func (c *Checker) drainTo(st *state, calls []Call, dst batchDst, sidx, order, counts []int32) {
	resolved := 0
	for i := range calls {
		cl := &calls[i]
		if hit, sealed := st.plane.fastCheck(cl.SID); hit != nil || sealed {
			if hit != nil {
				dst.set(i, hit)
			} else {
				c.check(calls, dst, i)
			}
			sidx[i] = -1
			resolved++
			continue
		}
		si := st.shardIndex(cl.SID, &cl.Args)
		sidx[i] = int32(si)
		counts[si+1]++
	}
	if resolved == len(calls) {
		return
	}
	for s := 1; s < len(counts); s++ {
		counts[s] += counts[s-1]
	}
	for i, si := range sidx {
		if si < 0 {
			continue
		}
		order[counts[si]] = int32(i)
		counts[si]++
	}
	// counts[s] is now the end of shard s's run in order.
	start := int32(0)
	for s := range st.shards {
		end := counts[s]
		if end == start {
			continue
		}
		sh := st.shards[s]
		sh.mu.Lock()
		sealed := sh.sealed
		if !sealed {
			for _, i := range order[start:end] {
				cl := &calls[i]
				out := sh.chk.Check(cl.SID, cl.Args)
				dst.set(int(i), &out)
				st.plane.noteLocked(cl.SID)
			}
		}
		sh.mu.Unlock()
		if sealed {
			for _, i := range order[start:end] {
				c.check(calls, dst, int(i))
			}
		}
		start = end
	}
}

// batchStack is the largest batch the grouping pass handles without heap
// allocation: index buffers for up to batchStack calls live on the stack.
const batchStack = 512

// smallShards is the fan-out up to which the grouping pass uses its small
// stack counts buffer.
const smallShards = 64

// SetProfile hot-swaps the profile: a fresh state (empty SPT/VAT, newly
// compiled filters) is built off to the side and atomically published, and
// the superseded generation is sealed and dropped. Checks that started
// against the old generation either complete and are counted there before
// it is sealed, or are redone on the new one. Shard count and routing are
// preserved.
func (c *Checker) SetProfile(p *seccomp.Profile) error {
	return c.swap(p)
}

// Reset clears all cached state (every shard's SPT and VAT) while keeping
// the current profile, like core.Checker.Reset on a security-epoch change.
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
	st, err := newState(p, len(old.shards), old.routing, old.mode, old.gen+1, c.noFast)
	if err != nil {
		return err
	}
	// Publish before sealing: whoever then finds the old generation sealed
	// is guaranteed to load the new one.
	c.state.Store(st)
	for _, sh := range old.shards {
		sh.mu.Lock()
		c.folded.Add(sh.chk.Stats)
		sh.sealed = true
		sh.mu.Unlock()
	}
	old.plane.seal(&c.folded)
	return nil
}

// Routing returns the checker's shard-routing mode.
func (c *Checker) Routing() Routing {
	return c.state.Load().routing
}

// ExecMode returns the filter execution mode the checker was built with.
func (c *Checker) ExecMode() seccomp.ExecMode {
	return c.state.Load().mode
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

// Shards returns the shard count.
func (c *Checker) Shards() int {
	return len(c.state.Load().shards)
}

// Stats sums checker statistics across all shards and all profile
// generations since construction. Decision-plane hits are folded in as
// what the locked path would have charged (constant allows count as SPT
// hits, constant denies as filter runs that denied), so the totals are
// path-independent: fast path on or off, the same workload produces the
// same Stats — except Classes, whose purpose is to say which path served
// (plane hits are ClassFastHit there).
func (c *Checker) Stats() Stats {
	// Held throughout, so the generation read below stays the live one.
	c.mu.Lock()
	defer c.mu.Unlock()
	total := c.folded
	st := c.state.Load()
	for _, sh := range st.shards {
		sh.mu.Lock()
		total.Add(sh.chk.Stats)
		sh.mu.Unlock()
	}
	st.plane.foldStats(&total)
	return total
}

// FastResolved reports whether the decision plane answers sid without the
// locked shard path: the plane coverage the benchmarks report.
func (c *Checker) FastResolved(sid int) bool {
	return c.state.Load().plane.resolved(sid)
}

// FastStats summarizes the current generation's decision plane: compiled
// record counts and lock-free hits served. Retired generations' hits are
// already folded into Stats.
func (c *Checker) FastStats() FastStats {
	return c.state.Load().plane.fastStats()
}

// VATBytes returns the memory footprint of the current generation's VAT,
// summed across shards.
func (c *Checker) VATBytes() int {
	st := c.state.Load()
	n := 0
	for _, sh := range st.shards {
		sh.mu.Lock()
		n += sh.chk.VAT.SizeBytes()
		sh.mu.Unlock()
	}
	return n
}
