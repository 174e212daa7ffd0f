package engine

import (
	"draco/internal/concurrent"
	"draco/internal/core"
	"draco/internal/seccomp"
)

func init() {
	Register(Info{
		Name:       "draco-concurrent",
		Concurrent: true,
		New:        newDracoConcurrent,
	})
}

// dracoConcurrent wraps the concurrent checker. Safe for concurrent
// use: any number of goroutines may call Check/CheckBatch while another
// hot-swaps the profile.
type dracoConcurrent struct {
	chk *concurrent.Checker
	obs Observer
}

func newDracoConcurrent(opts Options) (Engine, error) {
	chk, err := concurrent.NewCheckerConfig(opts.Profile, concurrent.Config{Mode: seccomp.ExecBitmap})
	if err != nil {
		return nil, err
	}
	return &dracoConcurrent{chk: chk, obs: opts.Observer}, nil
}

// Check answers through the checker's decision path when there is no
// observer; the hook needs the whole outcome.
func (e *dracoConcurrent) Check(sid int, args Args) Decision {
	if e.obs == nil {
		return e.chk.CheckDecision(sid, &args)
	}
	out := e.chk.Check(sid, args)
	observeOutcome(e.obs, sid, &out)
	return out.Decision()
}

// CheckBatch uses the checker's native batching (lock-free hits, then one
// lock per batch). Without an observer the decisions are written straight
// into dst;
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

func (e *dracoConcurrent) Close() error { return nil }
