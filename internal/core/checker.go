package core

import (
	"draco/internal/ebpf"
	"draco/internal/hashes"
	"draco/internal/seccomp"
	"draco/internal/syscalls"
)

// Outcome describes a single Draco check, with enough event detail for the
// cost models to charge cycles.
type Outcome struct {
	// Allowed reports whether the system call may proceed.
	Allowed bool
	// Action is the effective seccomp action.
	Action seccomp.Action
	// SPTHit: the SPT entry was valid (ID validated before).
	SPTHit bool
	// ArgsChecked: the syscall requires argument validation.
	ArgsChecked bool
	// VATHit: the argument set was found already validated.
	VATHit bool
	// FilterRan: the Seccomp filter chain executed (Draco miss path).
	FilterRan bool
	// FilterExecuted is the number of BPF instructions the chain ran.
	FilterExecuted int
	// BitmapHit: the whole chain resolved through per-syscall
	// constant-action bitmaps (Linux 5.11 style) without executing any
	// BPF, so FilterExecuted is 0. Only possible under ExecBitmap filters.
	BitmapHit bool
	// Inserted: a new VAT entry was recorded.
	Inserted bool
	// ProgRan: the programmable policy was consulted for this call (either
	// executed or answered by constant extraction).
	ProgRan bool
	// ProgConstHit: the programmable policy resolved through its extracted
	// constant-action table without executing a single program instruction —
	// the programmable analog of BitmapHit.
	ProgConstHit bool
	// FastHit: the decision was served by the lock-free decision plane
	// (internal/concurrent) — a precompiled constant resolved without
	// locks, table probes, or filter execution. Purely an attribution
	// flag: every other field matches what the locked path would report.
	FastHit bool
	// Hash is the hash value under which the argument set resides in the
	// VAT (valid when ArgsChecked and Allowed); the SLB/STB store it.
	Hash uint64
	// Pair carries both computed hash values (valid when ArgsChecked).
	Pair hashes.Pair
}

// Stats aggregates checker behaviour over a run.
type Stats struct {
	Checks      uint64
	SPTHits     uint64
	VATHits     uint64
	FilterRuns  uint64
	FilterInsns uint64
	Inserts     uint64
	Denied      uint64
	// Classes tallies the checks by the tier that answered (Outcome.Class);
	// the entries sum to Checks.
	Classes [NumLatencyClasses]uint64
}

// Add folds o's counters into s.
func (s *Stats) Add(o Stats) {
	s.Checks += o.Checks
	s.SPTHits += o.SPTHits
	s.VATHits += o.VATHits
	s.FilterRuns += o.FilterRuns
	s.FilterInsns += o.FilterInsns
	s.Inserts += o.Inserts
	s.Denied += o.Denied
	for i, n := range o.Classes {
		s.Classes[i] += n
	}
}

// Checker is the software implementation of Draco (paper §V-C): a kernel
// component that consults the SPT and VAT at the system call entry point
// and falls back to the Seccomp filter chain on a miss.
type Checker struct {
	SPT     *SPT
	VAT     *VAT
	Chain   seccomp.Chain
	Profile *seccomp.Profile
	// Prog is the attached programmable policy (nil without one). Draco's
	// caches are sound only for stateless decisions, so the classifier's
	// verdict per syscall number governs the interaction:
	//
	//   - must-run numbers (stateful or payload-dependent paths) bypass the
	//     SPT/VAT entirely and execute the program on every check;
	//   - stateless numbers stay cacheable, with the argument bytes the
	//     program reads OR'd into the SPT bitmask so the VAT key
	//     discriminates them;
	//   - constant numbers cost nothing: the extracted action combines with
	//     the whitelist verdict on the miss path only.
	Prog  *ebpf.Attached
	Stats Stats
}

// NewChecker builds the per-process Draco state for a profile already
// compiled into chain. SPT entries and VAT tables are created lazily, on
// the first successful validation, mirroring the paper's workflow
// (Figure 4): nothing is cached until Seccomp has allowed it once.
func NewChecker(profile *seccomp.Profile, chain seccomp.Chain) *Checker {
	return &Checker{
		SPT:     NewSPT(),
		VAT:     NewVAT(),
		Chain:   chain,
		Profile: profile,
	}
}

// Check validates one system call through the Draco workflow (Figure 4).
func (c *Checker) Check(sid int, args hashes.Args) Outcome {
	c.Stats.Checks++
	if c.Prog != nil {
		if c.Prog.MustRun(int32(sid)) {
			// Stateful/payload-dependent decision: caching it would freeze a
			// verdict that mutable state is supposed to change.
			return c.progPath(sid, args)
		}
		if act, ok := c.Prog.Classification().ConstAction(int32(sid)); ok && !ebpf.Allows(act) {
			// Constant deny: the caches may hold an allow from the whitelist,
			// which the program unconditionally overrides.
			return c.progPath(sid, args)
		}
	}
	var out Outcome
	e := c.SPT.Lookup(sid)
	if e != nil {
		e.MarkAccessed()
		out.SPTHit = true
		if !e.ChecksArgs() {
			// ID-only syscall: the valid bit is the whole check (§V-A).
			c.Stats.SPTHits++
			c.Stats.Classes[ClassIDFast]++
			out.Allowed = true
			out.Action = seccomp.ActAllow
			return out
		}
		out.ArgsChecked = true
		found, way, pair := e.table.Lookup(args)
		out.Pair = pair
		if found {
			c.Stats.VATHits++
			c.Stats.Classes[ClassVATHit]++
			out.VATHit = true
			out.Allowed = true
			out.Action = seccomp.ActAllow
			if way == 1 {
				out.Hash = pair.H1
			} else {
				out.Hash = pair.H2
			}
			return out
		}
	}
	// Miss: run the Seccomp filter chain (Figure 4's "Execute the Seccomp
	// Profile" box).
	return c.slowPath(sid, args, out)
}

// progPath handles syscall numbers whose programmable verdict must be
// computed fresh on every check: the whitelist chain and the program both
// run, kernel precedence combines their actions, and nothing is cached.
func (c *Checker) progPath(sid int, args hashes.Args) Outcome {
	var out Outcome
	d := &seccomp.Data{Nr: int32(sid), Arch: seccomp.AuditArchX8664, Args: args}
	r := c.Chain.Check(d)
	out.FilterRan = true
	out.FilterExecuted = r.Executed
	out.BitmapHit = r.BitmapHit
	c.Stats.FilterRuns++
	c.Stats.FilterInsns += uint64(r.Executed)
	ctx := ebpf.NewCtx(int32(sid), args)
	pr := c.Prog.Check(&ctx)
	out.ProgRan = true
	out.ProgConstHit = pr.ConstHit
	out.FilterExecuted += pr.Executed
	if pr.Executed > 0 {
		out.BitmapHit = false
	}
	c.Stats.FilterInsns += uint64(pr.Executed)
	out.Action = seccomp.Combine(r.Action, seccomp.Action(pr.Action))
	if !out.Action.Allows() {
		c.Stats.Denied++
		c.Stats.Classes[ClassDenied]++
		return out
	}
	out.Allowed = true
	c.Stats.Classes[out.Class()]++
	return out
}

func (c *Checker) slowPath(sid int, args hashes.Args, out Outcome) Outcome {
	d := &seccomp.Data{Nr: int32(sid), Arch: seccomp.AuditArchX8664, Args: args}
	r := c.Chain.Check(d)
	out.FilterRan = true
	out.FilterExecuted = r.Executed
	out.BitmapHit = r.BitmapHit
	out.Action = r.Action
	c.Stats.FilterRuns++
	c.Stats.FilterInsns += uint64(r.Executed)
	var progMask uint64
	if c.Prog != nil {
		// Non-must-run number: the program's verdict here is a pure function
		// of (nr, args) — or a constant — so the combined decision is as
		// cacheable as the whitelist's own.
		ctx := ebpf.NewCtx(int32(sid), args)
		pr := c.Prog.Check(&ctx)
		out.ProgRan = true
		out.ProgConstHit = pr.ConstHit
		out.FilterExecuted += pr.Executed
		if pr.Executed > 0 {
			out.BitmapHit = false
		}
		c.Stats.FilterInsns += uint64(pr.Executed)
		out.Action = seccomp.Combine(r.Action, seccomp.Action(pr.Action))
		progMask = c.Prog.ArgMask(int32(sid))
	}
	if !out.Action.Allows() {
		c.Stats.Denied++
		c.Stats.Classes[ClassDenied]++
		return out
	}
	out.Allowed = true
	// Update the table(s) with the newly validated entry (Figure 4's
	// "Update Table" box).
	rule, ok := c.Profile.RuleFor(sid)
	if !ok {
		// Allowed by the filter but unknown to the profile model (e.g. a
		// LOG default); do not cache.
		c.Stats.Classes[out.Class()]++
		return out
	}
	e := c.SPT.Lookup(sid)
	fresh := e == nil
	if fresh {
		entry := SPTEntry{Valid: true}
		entry.MarkAccessed()
		if rule.ChecksArgs() || progMask != 0 {
			// The VAT key must discriminate every argument byte the decision
			// depends on — the rule's checked bytes plus the bytes a
			// stateless program reads. An ID-only rule under an
			// argument-reading program therefore still gets a VAT table:
			// the ID-fast path alone would skip the program's condition.
			entry.ArgBitmask = BitmaskFor(rule) | progMask
			sets := estimatedSets(rule)
			if progMask != 0 {
				sets += 32 // headroom for distinct arg tuples the program passes
			}
			entry.Base = c.VAT.CreateTable(sid, sets, entry.ArgBitmask)
			entry.table = c.VAT.Table(sid)
		}
		c.SPT.Set(sid, entry)
		e = c.SPT.Lookup(sid)
	}
	if e.ChecksArgs() {
		out.ArgsChecked = true
		// An entry that existed at Check has had the set hashed by its
		// table's Lookup; only a fresh one needs the pair computed.
		if fresh {
			out.Pair = hashes.ArgSet(args, e.ArgBitmask)
		}
		// A set the relocation chain dropped again is not in the VAT: no
		// hash to hand the SLB/STB, and not an insert.
		if h, resident := e.table.Put(args, out.Pair); resident {
			out.Hash = h
			out.Inserted = true
			c.Stats.Inserts++
		}
	}
	c.Stats.Classes[out.Class()]++
	return out
}

// BitmaskFor derives the SPT Argument Bitmask from a profile rule: the
// meaningful bytes (per the argument's declared width) of every checked
// argument.
func BitmaskFor(rule seccomp.Rule) uint64 {
	var m uint64
	cover := func(idx int) {
		w := rule.Syscall.ArgWidth(idx)
		byteBits := uint64(0xff)
		if w < syscalls.ArgBytes {
			byteBits = (uint64(1) << uint(w)) - 1
		}
		m |= byteBits << (uint(idx) * syscalls.ArgBytes)
	}
	for _, idx := range rule.CheckedArgs {
		cover(idx)
	}
	// Masked conditions admit families of values; the VAT caches the exact
	// tuples that pass, so their argument bytes participate in hashing too.
	for _, conds := range rule.MaskedSets {
		for _, c := range conds {
			cover(c.ArgIndex)
		}
	}
	return m
}

// estimatedSets sizes a rule's VAT table: exact sets count one slot each;
// each masked-condition family gets headroom for the distinct values that
// will be observed passing it.
func estimatedSets(rule seccomp.Rule) int {
	return len(rule.AllowedSets) + 16*len(rule.MaskedSets)
}

// Reset clears the cached state (SPT and VAT) but keeps the profile and
// filter chain: what happens when the OS tears down Draco state, e.g. on
// security-epoch changes. Statistics are preserved.
func (c *Checker) Reset() {
	c.SPT = NewSPT()
	c.VAT = NewVAT()
}
