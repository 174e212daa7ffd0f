package engine

import (
	"draco/internal/core"
	"draco/internal/seccomp"
)

func init() {
	Register(Info{
		Name:        "draco-sw",
		Description: "software Draco (paper §V): SPT + cuckoo VAT consulted before the filter, one table per process",
		Concurrent:  false,
		New:         newDracoSW,
	})
}

// dracoSW wraps the sequential software checker. Not safe for concurrent
// use (one SPT/VAT, no locks); wrap with Synchronized to share.
type dracoSW struct {
	chk  *core.Checker
	mode seccomp.ExecMode
	obs  Observer
	gen  uint64
	// prior accumulates stats from generations retired by SetProfile.
	prior Stats
}

func newDracoSW(opts Options) (Engine, error) {
	mode, err := opts.execMode()
	if err != nil {
		return nil, err
	}
	chk, err := buildCoreChecker(opts.Profile, mode)
	if err != nil {
		return nil, err
	}
	return &dracoSW{chk: chk, mode: mode, obs: opts.Observer, gen: 1}, nil
}

// buildCoreChecker compiles a profile (compilation validates it) into a
// linear filter and assembles the sequential checker.
func buildCoreChecker(p *seccomp.Profile, mode seccomp.ExecMode) (*core.Checker, error) {
	f, err := seccomp.NewFilterMode(p, seccomp.ShapeLinear, mode)
	if err != nil {
		return nil, err
	}
	chk := core.NewChecker(p, seccomp.Chain{f})
	// A profile-carried programmable policy attaches fresh here: a rebuild
	// (construction or SetProfile) starts a blank map-state epoch, just as
	// it starts an empty VAT.
	chk.Prog = attachProgram(p, mode)
	return chk, nil
}

func (e *dracoSW) Name() string { return "draco-sw" }

func (e *dracoSW) Check(sid int, args Args) Decision {
	out := e.chk.Check(sid, args)
	if e.obs != nil {
		observeOutcome(e.obs, sid, &out)
	}
	return out.Decision()
}

func (e *dracoSW) CheckBatch(calls []Call, dst []Decision) []Decision {
	dst = sizeBatch(dst, len(calls))
	for i, cl := range calls {
		dst[i] = e.Check(cl.SID, cl.Args)
	}
	return dst
}

func (e *dracoSW) Stats() Stats {
	s := e.prior
	s.Add(e.chk.Stats)
	return s
}

func (e *dracoSW) SetProfile(p *seccomp.Profile) error {
	chk, err := buildCoreChecker(p, e.mode)
	if err != nil {
		return err
	}
	e.prior.Add(e.chk.Stats)
	e.chk = chk
	e.gen++
	return nil
}

func (e *dracoSW) VATBytes() int { return e.chk.VAT.SizeBytes() }

func (e *dracoSW) Describe() Desc {
	return Desc{Engine: "draco-sw", Profile: e.chk.Profile.Name, Generation: e.gen, Shards: 1}
}

func (e *dracoSW) Close() error { return closeObserver(e.obs) }
