package hwdraco

import (
	"draco/internal/core"
	"draco/internal/hashes"
	"draco/internal/microarch"
)

// Stats aggregates engine behaviour: the Figure 13 hit rates and the
// Table I flow distribution.
type Stats struct {
	Syscalls uint64
	// IDOnly counts syscalls resolved by the SPT valid bit alone.
	IDOnly uint64

	STBAccesses uint64
	STBHits     uint64

	SLBPreloads    uint64
	SLBPreloadHits uint64

	SLBAccesses   uint64
	SLBAccessHits uint64

	Flows [7]uint64 // indexed by Flow
	// FlowCycles accumulates check cycles per flow, for mean-latency
	// reporting (Table I's fast/slow column, quantified).
	FlowCycles [7]uint64

	VATFetches    uint64
	OSInvocations uint64
	Squashes      uint64

	SPTMissRefills uint64
}

// STBHitRate returns Figure 13's STB bar.
func (s Stats) STBHitRate() float64 { return rate(s.STBHits, s.STBAccesses) }

// SLBPreloadHitRate returns Figure 13's SLB Preload bar.
func (s Stats) SLBPreloadHitRate() float64 { return rate(s.SLBPreloadHits, s.SLBPreloads) }

// SLBAccessHitRate returns Figure 13's SLB Access bar.
func (s Stats) SLBAccessHitRate() float64 { return rate(s.SLBAccessHits, s.SLBAccesses) }

// MeanFlowCycles returns the average check cost of one flow (0 if unseen).
func (s Stats) MeanFlowCycles(f Flow) float64 {
	if s.Flows[f] == 0 {
		return 0
	}
	return float64(s.FlowCycles[f]) / float64(s.Flows[f])
}

func rate(hit, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return float64(hit) / float64(total)
}

// Result describes one hardware check.
type Result struct {
	Allowed bool
	Flow    Flow
	// CheckCycles is the latency the system call pays for checking, after
	// preload overlap (zero-extra for fast flows beyond the table access).
	CheckCycles uint64
	// OSRan indicates the slow software path executed (Seccomp + VAT
	// update); its instruction cost is reported separately because the
	// cost model prices BPF instructions.
	OSRan          bool
	FilterExecuted int
}

// Engine is one core's Draco hardware acting for one process. The VAT and
// the OS-side state live in the embedded software checker; the engine adds
// the SLB/STB/SPT fast path and its timing.
type Engine struct {
	cfg Config
	spt *HWSPT
	stb *STB
	slb *SLB
	tmp *TempBuffer

	mem *microarch.Hierarchy
	tlb *microarch.TLB

	os *core.Checker

	stats Stats
}

// NewEngine builds the hardware for a process whose OS-side Draco state is
// checker, sharing the given memory hierarchy for VAT accesses.
func NewEngine(cfg Config, checker *core.Checker, mem *microarch.Hierarchy, tlb *microarch.TLB) *Engine {
	return &Engine{
		cfg: cfg,
		spt: NewHWSPT(cfg.SPTEntries),
		stb: NewSTB(cfg.STBEntries, cfg.STBWays),
		slb: NewSLB(cfg),
		tmp: NewTempBuffer(cfg.TempBufEntries),
		mem: mem,
		tlb: tlb,
		os:  checker,
	}
}

// Stats returns the accumulated counters.
func (e *Engine) Stats() Stats { return e.stats }

// vatFetch charges a VAT probe for one hash: address translation plus the
// memory access.
func (e *Engine) vatFetch(sid int, hash uint64) uint64 {
	addr := e.os.VAT.SlotAddr(sid, hash)
	e.stats.VATFetches++
	return e.tlb.Translate(addr) + e.mem.Access(addr)
}

// vatFetchPair charges the two parallel cuckoo probes.
func (e *Engine) vatFetchPair(sid int, pair hashes.Pair) uint64 {
	a := e.os.VAT.SlotAddr(sid, pair.H1)
	b := e.os.VAT.SlotAddr(sid, pair.H2)
	e.stats.VATFetches += 2
	lat := e.tlb.Translate(a)
	la := e.mem.Access(a)
	lb := e.mem.Access(b)
	if lb > la {
		la = lb
	}
	return lat + la
}

// sptLookup resolves the hardware SPT entry for sid, refilling from the
// OS-side SPT on a tag miss. argc is the entry's precomputed argument
// count; refillCycles is the refill latency (zero on a hw hit); known
// reports whether the OS side knows the syscall.
func (e *Engine) sptLookup(sid int) (base, bitmask uint64, argc int, refillCycles uint64, known bool) {
	if b, m, a, ok := e.spt.Lookup(sid); ok {
		return b, m, a, 0, true
	}
	sw := e.os.SPT.Lookup(sid)
	if sw == nil || !sw.Valid {
		return 0, 0, 0, 0, false
	}
	// Refill: one memory access to the OS SPT image.
	e.stats.SPTMissRefills++
	lat := e.mem.Access(core.DefaultVATBase - 0x10000 + uint64(sid)*16)
	e.spt.Fill(sid, sw.Base, sw.ArgBitmask)
	return sw.Base, sw.ArgBitmask, int(sw.NArgs), lat, true
}

// dispatchResult carries the dispatch-stage events into the ROB-head stage.
type dispatchResult struct {
	stbHit         bool
	preloadHit     bool
	preloadFetched bool
	preloadLatency uint64
}

// dispatch is the speculative front-end stage (Figure 9): STB lookup when
// the instruction enters the ROB and, on a hit, the SLB preload.
func (e *Engine) dispatch(pc uint64, sid int) dispatchResult {
	var d dispatchResult
	e.stats.STBAccesses++
	predSID, predHash, ok := e.stb.Lookup(pc)
	if ok && predSID == sid {
		d.stbHit = true
		e.stats.STBHits++
	}
	if d.stbHit && e.cfg.PreloadEnabled {
		_, bitmask, argc, _, known := e.sptLookup(sid)
		if known && bitmask != 0 {
			e.stats.SLBPreloads++
			probeHit := false
			if e.cfg.SecurePreload {
				// No LRU update on a speculative probe (§IX).
				probeHit = e.slb.ProbeHash(sid, argc, predHash)
			} else {
				// Insecure variant for the security analysis: the probe
				// perturbs LRU state speculatively.
				probeHit = e.slb.AccessHash(sid, argc, predHash)
			}
			if probeHit {
				d.preloadHit = true
				e.stats.SLBPreloadHits++
			} else {
				// Preload miss: fetch the predicted VAT slot.
				d.preloadLatency = e.vatFetch(sid, predHash)
				if ent, found := e.os.VAT.LookupHash(sid, predHash); found {
					if e.cfg.SecurePreload {
						// Into the Temporary Buffer; committed only by
						// the non-speculative access.
						e.tmp.Add(sid, argc, ent.Hash, ent.Args)
					} else {
						// Straight into the SLB — speculative state that
						// survives a squash.
						e.slb.Fill(sid, argc, ent.Hash, ent.Args)
					}
					d.preloadFetched = true
				}
			}
		}
	}
	return d
}

// SpeculativeDispatch models a syscall instruction that enters the ROB —
// triggering the STB lookup and SLB preload — but is squashed before
// reaching the head (a mispredicted path). It performs only the dispatch
// stage; the caller squashes afterwards. Used by the §IX security analysis.
func (e *Engine) SpeculativeDispatch(pc uint64, sid int) {
	e.dispatch(pc, sid)
}

// OnSyscall processes one system call through the hardware: the dispatch-
// time STB/preload stage and the ROB-head check stage (Figures 7 and 9).
func (e *Engine) OnSyscall(pc uint64, sid int, args hashes.Args) Result {
	e.stats.Syscalls++

	// ---- Dispatch stage: STB lookup and SLB preload (Figure 9) ----
	disp := e.dispatch(pc, sid)
	stbHit, preloadHit := disp.stbHit, disp.preloadHit
	preloadFetched, preloadLatency := disp.preloadFetched, disp.preloadLatency

	// ---- ROB-head stage: SPT check, then SLB access (Figure 7) ----
	base, bitmask, argc, refill, known := e.sptLookup(sid)
	_ = base
	if !known {
		// The OS has never validated this syscall ID: software path.
		return e.slowOS(pc, sid, args, flowForMiss(stbHit, preloadHit), refill)
	}
	if bitmask == 0 {
		// ID-only check: the SPT valid bit decides (paper §V-A). The
		// 2-cycle table access hides under the syscall's serialization.
		// The STB still learns the site so future dispatches resolve the
		// SID early.
		e.stats.IDOnly++
		if !stbHit {
			e.stb.Fill(pc, sid, 0)
		}
		return Result{Allowed: true, Flow: FlowNone, CheckCycles: refill}
	}

	e.stats.SLBAccesses++

	// The non-speculative access: check the SLB proper, then the
	// Temporary Buffer (a preloaded entry commits into the SLB here).
	if hash, hit := e.slb.Access(sid, argc, args, bitmask); hit {
		e.stats.SLBAccessHits++
		flow := Flow5
		if stbHit {
			if preloadHit {
				flow = Flow1
			} else {
				flow = Flow3
			}
		}
		if !stbHit {
			// Flow 5: fill the STB with the correct SID and hash.
			e.stb.Fill(pc, sid, hash)
		}
		e.stats.Flows[flow]++
		e.stats.FlowCycles[flow] += e.cfg.TableLatency + refill
		return Result{Allowed: true, Flow: flow, CheckCycles: e.cfg.TableLatency + refill}
	}
	if ent, hit := e.tmp.Take(sid, args, bitmask); hit {
		// The preload fetched the right entry; commit it to the SLB. The
		// VAT latency overlapped with the time to the ROB head; only the
		// excess stalls the pipeline.
		e.slb.Fill(sid, argc, ent.hash, ent.args)
		e.stats.SLBAccessHits++
		stall := uint64(0)
		if preloadLatency > e.cfg.PreloadLead {
			stall = preloadLatency - e.cfg.PreloadLead
		}
		e.stats.Flows[Flow3]++
		e.stats.FlowCycles[Flow3] += e.cfg.TableLatency + stall + refill
		return Result{Allowed: true, Flow: Flow3, CheckCycles: e.cfg.TableLatency + stall + refill}
	}
	_ = preloadFetched

	// SLB access miss: fetch the argument set from the VAT with both
	// hashes (Figure 7 step 3).
	pair := hashes.ArgSet(args, bitmask)
	lat := e.cfg.HashLatency + e.vatFetchPair(sid, pair)
	if found, way, _ := e.os.VAT.Lookup(sid, args); found {
		h := pair.H1
		if way == 2 {
			h = pair.H2
		}
		e.slb.Fill(sid, argc, h, args)
		e.stb.Fill(pc, sid, h)
		flow := flowForMiss(stbHit, preloadHit)
		e.stats.Flows[flow]++
		e.stats.FlowCycles[flow] += lat + refill
		return Result{Allowed: true, Flow: flow, CheckCycles: lat + refill}
	}

	// Not in the VAT either: the OS runs the Seccomp filter
	// (SWCheckNeeded, paper §VII-B).
	return e.slowOS(pc, sid, args, flowForMiss(stbHit, preloadHit), lat+refill)
}

// flowForMiss classifies an SLB access miss by the dispatch-stage events.
func flowForMiss(stbHit, preloadHit bool) Flow {
	switch {
	case stbHit && preloadHit:
		return Flow2
	case stbHit:
		return Flow4
	default:
		return Flow6
	}
}

// slowOS runs the software checker (Seccomp filter + table updates) and
// fills the hardware structures on success.
func (e *Engine) slowOS(pc uint64, sid int, args hashes.Args, flow Flow, priorCycles uint64) Result {
	e.stats.OSInvocations++
	out := e.os.Check(sid, args)
	res := Result{
		Allowed:        out.Allowed,
		Flow:           flow,
		CheckCycles:    priorCycles,
		OSRan:          true,
		FilterExecuted: out.FilterExecuted,
	}
	if !out.Allowed {
		return res
	}
	sw := e.os.SPT.Lookup(sid)
	if sw != nil && sw.Valid {
		e.spt.Fill(sid, sw.Base, sw.ArgBitmask)
		if sw.ChecksArgs() {
			argc := int(sw.NArgs)
			e.slb.Fill(sid, argc, out.Hash, args)
			e.stb.Fill(pc, sid, out.Hash)
			e.stats.Flows[flow]++
			e.stats.FlowCycles[flow] += res.CheckCycles
		} else {
			e.stats.IDOnly++
			e.stb.Fill(pc, sid, 0)
			res.Flow = FlowNone
		}
	}
	return res
}

// Squash models a pipeline flush while a preload was in flight: the
// Temporary Buffer is cleared so speculative state never reaches the SLB
// (paper §IX).
func (e *Engine) Squash() {
	e.tmp.Squash()
	e.stats.Squashes++
}

// ContextSwitch invalidates the hardware structures. When the next process
// is the same one, the structures are kept (paper §VII-B); otherwise
// everything is cleared and the caller is responsible for charging the SPT
// save/restore cost (AccessedCount entries).
func (e *Engine) ContextSwitch(sameProcess bool) int {
	if sameProcess {
		return 0
	}
	saved := e.spt.AccessedCount()
	e.slb.Invalidate()
	e.stb.Invalidate()
	e.spt.Invalidate()
	e.tmp.Squash()
	return saved
}

// RestoreSPT models the OS restoring saved SPT entries after a context
// switch back to this process: the hot syscalls' entries are refilled from
// memory so the first calls after the switch skip the refill misses.
func (e *Engine) RestoreSPT(sids []int) {
	for _, sid := range sids {
		if sw := e.os.SPT.Lookup(sid); sw != nil && sw.Valid {
			e.spt.Fill(sid, sw.Base, sw.ArgBitmask)
		}
	}
}

// ClearAccessedBits is the periodic Accessed-bit sweep (paper §VII-B).
func (e *Engine) ClearAccessedBits() { e.spt.ClearAccessed() }

// AccessedSIDs returns the SIDs of hardware SPT entries with the Accessed
// bit set (the save set on a context switch).
func (e *Engine) AccessedSIDs() []int {
	var out []int
	for i := range e.spt.entries {
		en := &e.spt.entries[i]
		if en.valid && en.accessed {
			out = append(out, en.sid)
		}
	}
	return out
}
