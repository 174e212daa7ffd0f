package engine

import (
	"draco/internal/ebpf"
	"draco/internal/seccomp"
)

func init() {
	Register(Info{
		Name:       "filter-only",
		Concurrent: false,
		New:        newFilterOnly,
	})
}

// filterOnly wraps a compiled Seccomp filter without Draco caching: every
// check runs the BPF program or resolves through the per-syscall
// constant-action bitmap. Not safe for concurrent use (the stats counters
// are unguarded).
type filterOnly struct {
	f       *seccomp.Filter
	profile *seccomp.Profile
	// prog is the profile's programmable policy (nil without one): even the
	// no-caching baseline enforces it, so every engine produces the same
	// decision stream for a programmable profile.
	prog  *ebpf.Attached
	obs   Observer
	stats Stats
}

func newFilterOnly(opts Options) (Engine, error) {
	f, err := seccomp.NewFilterMode(opts.Profile, seccomp.ShapeLinear, seccomp.ExecBitmap)
	if err != nil {
		return nil, err
	}
	return &filterOnly{
		f:       f,
		profile: opts.Profile,
		prog:    attachProgram(opts.Profile),
		obs:     opts.Observer,
	}, nil
}

func (e *filterOnly) Check(sid int, args Args) Decision {
	d := seccomp.Data{Nr: int32(sid), Arch: seccomp.AuditArchX8664, Args: args}
	r := e.f.Check(&d)
	dec := Decision{Allowed: r.Action.Allows(), FilterInstructions: r.Executed, Action: r.Action}
	e.stats.Checks++
	e.stats.FilterRuns++
	e.stats.FilterInsns += uint64(r.Executed)
	progConst, progRan := false, false
	if e.prog != nil {
		ctx := ebpf.NewCtx(int32(sid), args)
		pr := e.prog.Check(&ctx)
		dec.FilterInstructions += pr.Executed
		dec.Action = seccomp.Combine(r.Action, seccomp.Action(pr.Action))
		dec.Allowed = dec.Action.Allows()
		e.stats.FilterInsns += uint64(pr.Executed)
		progConst, progRan = pr.ConstHit, true
	}
	class := ClassFilter
	switch {
	case !dec.Allowed:
		e.stats.Denied++
		class = ClassDenied
	case progRan && !progConst:
		class = ClassProgMiss
	case progConst:
		class = ClassProgHit
	case r.BitmapHit:
		class = ClassBitmapHit
	}
	e.stats.Classes[class]++
	if e.obs != nil {
		e.obs.Observe(Observation{SID: sid, Decision: dec, Class: class})
	}
	return dec
}

func (e *filterOnly) CheckBatch(calls []Call, dst []Decision) []Decision {
	dst = sizeBatch(dst, len(calls))
	for i, cl := range calls {
		dst[i] = e.Check(cl.SID, cl.Args)
	}
	return dst
}

func (e *filterOnly) Stats() Stats { return e.stats }

func (e *filterOnly) SetProfile(p *seccomp.Profile) error {
	f, err := seccomp.NewFilterMode(p, seccomp.ShapeLinear, seccomp.ExecBitmap)
	if err != nil {
		return err
	}
	e.f = f
	e.profile = p
	e.prog = attachProgram(p)
	return nil
}

func (e *filterOnly) VATBytes() int { return 0 }

func (e *filterOnly) Close() error { return nil }

// sizeBatch returns dst resized to n results, reusing its capacity.
func sizeBatch(dst []Decision, n int) []Decision {
	if cap(dst) < n {
		return make([]Decision, n)
	}
	return dst[:n]
}

// attachProgram builds filter-only's live programmable policy: the
// interpreter behind constant-action extraction. Nil when the profile has
// no program.
func attachProgram(p *seccomp.Profile) *ebpf.Attached {
	if p.Programmable == nil {
		return nil
	}
	return p.Programmable.Attach()
}
