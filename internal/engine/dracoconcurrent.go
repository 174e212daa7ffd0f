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
	return &dracoConcurrent{chk: chk, obs: opts.Observer}, nil
}

func (e *dracoConcurrent) Name() string { return "draco-concurrent" }

func (e *dracoConcurrent) Check(sid int, args Args) Decision {
	out := e.chk.Check(sid, args)
	if e.obs != nil {
		observeOutcome(e.obs, sid, &out)
	}
	return out.Decision()
}

// CheckBatch uses the checker's native batching (one lock per shard per
// batch). Without an observer the decisions are written straight into dst;
// the hook needs whole outcomes, taken in a stack buffer for service-sized
// batches.
func (e *dracoConcurrent) CheckBatch(calls []Call, dst []Decision) []Decision {
	if e.obs == nil {
		return e.chk.CheckBatchDecisions(calls, dst)
	}
	dst = sizeBatch(dst, len(calls))
	if len(calls) == 0 {
		return dst
	}
	var outsA [stackBatch]core.Outcome
	outs := e.chk.CheckBatch(calls, outsA[:0])
	for i := range outs {
		observeOutcome(e.obs, calls[i].SID, &outs[i])
		dst[i] = outs[i].Decision()
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
// full concurrent surface (dracobench -fastpath reads plane coverage
// through it).
func (e *dracoConcurrent) Inner() *concurrent.Checker { return e.chk }
