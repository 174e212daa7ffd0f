package engine

import (
	"fmt"

	"draco/internal/core"
	"draco/internal/hwdraco"
	"draco/internal/kernelmodel"
	"draco/internal/microarch"
	"draco/internal/seccomp"
)

func init() {
	Register(Info{
		Name:       "draco-hw",
		Concurrent: false,
		New:        newDracoHW,
	})
}

// dracoHW is the latency-annotated engine: it drives checks through the
// hardware SLB/STB/SPT model (hwdraco.Engine) backed by the software
// checker and a private cache hierarchy, and annotates every Observation
// with the modeled check latency in 2 GHz cycles (Table II configuration,
// Linux 5.3 cost model for the OS slow path). Decisions are identical to
// the sequential software checker's: the hardware structures only cache
// what the same deterministic filter validated. Not safe for concurrent use.
type dracoHW struct {
	os    *core.Checker
	hw    *hwdraco.Engine
	costs kernelmodel.CostModel
	obs   Observer
	// stats is tracked locally: the embedded software checker only sees
	// the slow path, so hw-served checks are accounted here.
	stats Stats
	// priorInserts carries Inserts from generations retired by SetProfile.
	priorInserts uint64
}

func newDracoHW(opts Options) (Engine, error) {
	e := &dracoHW{costs: kernelmodel.Linux53Costs(), obs: opts.Observer}
	if err := e.build(opts.Profile); err != nil {
		return nil, err
	}
	return e, nil
}

// build assembles a fresh OS-side checker, memory hierarchy, and hardware
// engine for a profile.
func (e *dracoHW) build(p *seccomp.Profile) error {
	if p.Programmable != nil {
		return fmt.Errorf("engine: draco-hw does not support programmable policies: the SLB/STB hardware fast path caches stateless decisions only (use the software engines)")
	}
	os, err := buildCoreChecker(p)
	if err != nil {
		return err
	}
	mem := microarch.DefaultHierarchy()
	mem.AttachDRAM(microarch.NewDRAM())
	e.os = os
	e.hw = hwdraco.NewEngine(hwdraco.DefaultConfig(), os, mem, microarch.DefaultTLB())
	return nil
}

// buildCoreChecker compiles a profile (compilation validates it) into a
// linear bitmap-tier filter and assembles the sequential checker.
func buildCoreChecker(p *seccomp.Profile) (*core.Checker, error) {
	f, err := seccomp.NewFilterMode(p, seccomp.ShapeLinear, seccomp.ExecBitmap)
	if err != nil {
		return nil, err
	}
	chk := core.NewChecker(p, seccomp.Chain{f})
	// A profile-carried programmable policy attaches fresh here: a rebuild
	// (construction or SetProfile) starts a blank map-state epoch, just as
	// it starts an empty VAT.
	chk.Prog = attachProgram(p)
	return chk, nil
}

// sitePC synthesizes a stable per-syscall call-site PC for the STB: one
// static call site per syscall number, the common case the STB is built for
// (libc wrappers).
func sitePC(sid int) uint64 { return 0x40_1000 + uint64(sid)*16 }

func (e *dracoHW) Check(sid int, args Args) Decision {
	r := e.hw.OnSyscall(sitePC(sid), sid, args)
	cycles := r.CheckCycles
	dec := Decision{Allowed: r.Allowed, Cached: !r.OSRan, FilterInstructions: r.FilterExecuted, Action: seccomp.ActAllow}
	e.stats.Checks++
	var class LatencyClass
	switch {
	case r.OSRan:
		// The OS slow path ran: price the Seccomp dispatch, the executed
		// BPF instructions, and the VAT insert (kernel cost model).
		cycles += e.costs.SeccompDispatch + uint64(float64(r.FilterExecuted)*e.costs.BPFInstrCost)
		e.stats.FilterRuns++
		e.stats.FilterInsns += uint64(r.FilterExecuted)
		if r.Allowed {
			cycles += e.costs.VATInsert
			class = ClassInsert
		} else {
			dec.Action = e.os.Profile.DefaultAction
			e.stats.Denied++
			class = ClassDenied
		}
	case r.Flow == hwdraco.FlowNone:
		// ID-only: the SPT valid bit decided.
		e.stats.SPTHits++
		class = ClassIDFast
	default:
		// Argument set served by the SLB or a VAT fetch.
		e.stats.VATHits++
		class = ClassVATHit
	}
	e.stats.Classes[class]++
	e.stats.CheckCycles += cycles
	if e.obs != nil {
		e.obs.Observe(Observation{SID: sid, Decision: dec, CacheHit: !r.OSRan, Class: class, CheckCycles: cycles})
	}
	return dec
}

func (e *dracoHW) CheckBatch(calls []Call, dst []Decision) []Decision {
	dst = sizeBatch(dst, len(calls))
	for i, cl := range calls {
		dst[i] = e.Check(cl.SID, cl.Args)
	}
	return dst
}

func (e *dracoHW) Stats() Stats {
	s := e.stats
	s.Inserts = e.priorInserts + e.os.Stats.Inserts
	return s
}

func (e *dracoHW) SetProfile(p *seccomp.Profile) error {
	prior := e.os
	if err := e.build(p); err != nil {
		return err
	}
	e.priorInserts += prior.Stats.Inserts
	return nil
}

func (e *dracoHW) VATBytes() int { return e.os.VAT.SizeBytes() }

func (e *dracoHW) Close() error { return nil }
