package engine

import (
	"draco/internal/concurrent"
	"draco/internal/core"
	"draco/internal/seccomp"
)

func init() {
	Register(Info{
		Name:        "draco-concurrent",
		Description: "sharded concurrent Draco: read-mostly SPT behind an atomic profile pointer, N-way sharded VAT, hot-swappable profile",
		Concurrent:  true,
		New:         newDracoConcurrent,
	})
}

// dracoConcurrent wraps the sharded concurrent checker. Safe for concurrent
// use: any number of goroutines may call Check/CheckBatch while another
// hot-swaps the profile.
type dracoConcurrent struct {
	chk *concurrent.Checker
	obs Observer
}

func newDracoConcurrent(opts Options) (Engine, error) {
	routing, err := opts.routing()
	if err != nil {
		return nil, err
	}
	mode, err := opts.execMode()
	if err != nil {
		return nil, err
	}
	chk, err := concurrent.NewCheckerConfig(opts.Profile, concurrent.Config{
		Shards:     opts.Shards,
		Routing:    routing,
		Mode:       mode,
		NoFastPath: opts.NoFastPath,
	})
	if err != nil {
		return nil, err
	}
	return &dracoConcurrent{chk: chk, obs: opts.observer()}, nil
}

func (e *dracoConcurrent) Name() string { return "draco-concurrent" }

func (e *dracoConcurrent) Check(sid int, args Args) Decision {
	out := e.chk.Check(sid, args)
	dec := decisionFrom(out)
	class, hit := classify(out)
	e.obs.Observe(Observation{SID: sid, Decision: dec, CacheHit: hit, Class: class})
	return dec
}

func (e *dracoConcurrent) CheckBatch(calls []Call, dst []Decision) []Decision {
	dst = sizeBatch(dst, len(calls))
	if len(calls) == 0 {
		return dst
	}
	// The concurrent checker batches natively (one lock per shard per
	// batch). Service-sized batches take their outcomes in a stack buffer.
	var outsA [stackBatch]core.Outcome
	outs := e.chk.CheckBatch(calls, outsA[:0])
	for i, out := range outs {
		dec := decisionFrom(out)
		class, hit := classify(out)
		e.obs.Observe(Observation{SID: calls[i].SID, Decision: dec, CacheHit: hit, Class: class})
		dst[i] = dec
	}
	return dst
}

func (e *dracoConcurrent) Stats() Stats { return e.chk.Stats() }

func (e *dracoConcurrent) SetProfile(p *seccomp.Profile) error { return e.chk.SetProfile(p) }

func (e *dracoConcurrent) VATBytes() int { return e.chk.VATBytes() }

func (e *dracoConcurrent) Describe() Desc {
	return Desc{
		Engine:     "draco-concurrent",
		Profile:    e.chk.Profile().Name,
		Generation: e.chk.Generation(),
		Shards:     e.chk.Shards(),
		Routing:    e.chk.Routing().String(),
	}
}

func (e *dracoConcurrent) Close() error { return closeObserver(e.obs) }

// Inner exposes the wrapped concurrent checker for callers needing the
// full concurrent surface (the public draco.ConcurrentChecker wrapper).
func (e *dracoConcurrent) Inner() *concurrent.Checker { return e.chk }

// FastResolved reports whether the checker's decision plane answers sid
// lock-free; the SLB wrapper consults it to skip cache fills for syscalls
// the plane already serves in O(1).
func (e *dracoConcurrent) FastResolved(sid int) bool { return e.chk.FastResolved(sid) }
