package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"draco/internal/core"
	"draco/internal/ebpf"
	"draco/internal/hashes"
	"draco/internal/seccomp"
	"draco/internal/slb"
)

func init() {
	Register(Info{
		Name:        "draco-sw+slb",
		Description: "software Draco behind a per-worker software SLB: recent allow decisions served lock-free before the SPT/VAT",
		Concurrent:  false,
		New:         newWithSLB("draco-sw"),
	})
	Register(Info{
		Name:        "draco-concurrent+slb",
		Description: "sharded concurrent Draco behind a per-worker software SLB: hits skip the shard route, lock, and cuckoo probes entirely",
		Concurrent:  true,
		New:         newWithSLB("draco-concurrent"),
	})
}

// newWithSLB builds a constructor that wraps a registered inner mechanism
// with the software SLB. The observer is handed to the inner engine (it
// sees every miss) and to the wrapper (which reports hits as ClassSLBHit),
// so together they still observe exactly one event per check.
func newWithSLB(innerName string) Constructor {
	return func(opts Options) (Engine, error) {
		inner, err := New(innerName, opts)
		if err != nil {
			return nil, err
		}
		e, err := WithSLB(inner, SLBConfig{
			Profile:  opts.Profile,
			Sets:     opts.SLBSets,
			Ways:     opts.SLBWays,
			Indexing: opts.SLBIndexing,
			Observer: opts.Observer,
		})
		if err != nil {
			inner.Close()
			return nil, err
		}
		return e, nil
	}
}

// SLBConfig parameterizes WithSLB.
type SLBConfig struct {
	// Profile is the active policy (required): the SLB keys on the same
	// SPT Argument Bitmask hash the VAT probes with, derived from it.
	Profile *seccomp.Profile
	// Sets/Ways are the per-worker cache geometry (0 = slb defaults:
	// 64 sets x 4 ways).
	Sets, Ways int
	// Indexing selects the set-index function: "" or "sid" (the paper's
	// Figure 6 design), or "hash" (spread a hot syscall's argument sets).
	Indexing string
	// Observer receives one ClassSLBHit observation per hit (nil: none).
	// Misses are observed by the inner engine as usual.
	Observer Observer
}

// SLBStats aggregates the wrapper's lookaside behaviour.
type SLBStats struct {
	// Hits counts checks served by the SLB without touching the inner
	// engine; HitsIDOnly/HitsArgs split it by whether the syscall checks
	// arguments.
	Hits, HitsIDOnly, HitsArgs uint64
	// Misses counts checks forwarded to the inner engine.
	Misses uint64
	// Bypassed counts checks routed around the SLB on purpose: must-run
	// programmable numbers (caching would freeze mutable state) and
	// syscalls the inner engine's decision plane already answers lock-free
	// (an SLB line would only slow them down). Bypassed checks reach the
	// inner engine like misses but are never filled.
	Bypassed uint64
	// Fills counts allow decisions recorded into a worker cache.
	Fills uint64
	// Invalidations counts epoch bumps (one per profile swap): each one
	// flash-invalidates every worker's cache.
	Invalidations uint64
	// Workers is the number of per-worker caches created so far.
	Workers uint64
	// WorkerBytes is one worker cache's table footprint.
	WorkerBytes int
}

// slbStripes is the number of counter stripes hit/miss accounting spreads
// over. Each pooled worker cache is bound to one stripe at creation, so in
// steady state a stripe's counters are touched by one worker at a time and
// the atomic adds stay core-local instead of all workers hammering one
// cache line.
const slbStripes = 64

// slbCounters is one stripe, padded to a cache line.
type slbCounters struct {
	hitsID   atomic.Uint64
	hitsArgs atomic.Uint64
	misses   atomic.Uint64
	bypassed atomic.Uint64
	fills    atomic.Uint64
	_        [3]uint64
}

// slbWorker is one worker's checkout: a private cache plus its counter
// stripe. Workers live in a sync.Pool, so in steady state each serving
// goroutine reuses the same cache with no locks and no shared mutable
// state on the hit path.
type slbWorker struct {
	cache *slb.Cache
	ctr   *slbCounters
}

// maskTable maps syscall ID to its SPT Argument Bitmask (zero for ID-only
// and unknown syscalls), precomputed per profile generation so the hit
// path never consults the profile. For programmable profiles it also
// carries the program's per-syscall classification: stateless numbers get
// the argument bytes the program reads OR'd into their mask (so SLB keys
// discriminate them), and must-run numbers bypass the SLB entirely (a
// cached allow would freeze a decision mutable state is supposed to
// change).
type maskTable struct {
	masks []uint64
	cls   *ebpf.Classification
}

func (t *maskTable) mask(sid int) uint64 {
	if sid >= 0 && sid < len(t.masks) {
		return t.masks[sid]
	}
	return 0
}

// bypass reports whether the SLB must stay out of this syscall's way.
func (t *maskTable) bypass(sid int) bool {
	return t.cls != nil && t.cls.MustRun(int32(sid))
}

func buildMaskTable(p *seccomp.Profile) *maskTable {
	maxNum := 0
	for _, r := range p.Rules {
		if r.Syscall.Num > maxNum {
			maxNum = r.Syscall.Num
		}
	}
	t := &maskTable{masks: make([]uint64, maxNum+1)}
	for _, r := range p.Rules {
		if r.ChecksArgs() {
			t.masks[r.Syscall.Num] = core.BitmaskFor(r)
		}
	}
	if src := p.Programmable; src != nil {
		t.cls = src.Classify()
		for sid := range t.masks {
			t.masks[sid] |= t.cls.ArgMask(int32(sid))
		}
	}
	return t
}

// fastResolver is implemented by inner engines with a lock-free decision
// plane (draco-concurrent): FastResolved reports whether sid is answered
// in O(1) without the locked path. The wrapper bypasses the SLB for such
// syscalls — probing and filling a cache line cannot beat a decision that
// is already one atomic load away, and skipping the fill keeps SLB
// capacity for the argument-checked calls that need it.
type fastResolver interface {
	FastResolved(sid int) bool
}

// slbEngine composes a software SLB in front of any inner engine. See
// package slb for the cache itself; the wrapper owns what the cache cannot:
// the epoch counter (flash invalidation on SetProfile), the per-profile
// mask table, the worker pool, and the observer/stat plumbing.
type slbEngine struct {
	inner Engine
	name  string
	geom  slb.Config
	obs   Observer
	// fast is the inner engine's decision plane view (nil when the inner
	// engine has none). Resolved-ness is stable within a profile
	// generation: the plane is compiled at SetProfile time.
	fast fastResolver

	// epoch is the current profile epoch, starting at 1; entries tagged
	// with any other epoch never hit. masks is the matching bitmask table.
	// Readers load both with plain atomic loads — SetProfile is wait-free
	// with respect to checkers.
	epoch atomic.Uint64
	masks atomic.Pointer[maskTable]

	pool       sync.Pool
	nextStripe atomic.Uint32
	stripes    [slbStripes]slbCounters

	workers       atomic.Uint64
	invalidations atomic.Uint64

	// mu serializes SetProfile only; the check paths never take it.
	mu sync.Mutex
}

// WithSLB wraps inner with a per-worker software SLB: a fixed-size,
// set-associative cache of recent allow decisions keyed by (syscall ID,
// masked-argument hash pair). Hits return without routing, locking, or
// probing the inner tables; misses flow through inner unchanged, and allow
// decisions are recorded on the way back. SetProfile flash-invalidates
// every worker's cache by bumping an epoch counter (the software analog of
// the hardware SLB's valid-bit clear, paper §VI-C), so a post-swap check
// can never be served from a pre-swap entry.
//
// The wrapped engine is decision-identical to inner on allow/deny/action
// for every call: the SLB only caches what the same deterministic filter
// validated, keyed by the same masked bytes the VAT hashes. The `cached`
// flag carries the documented cache-timing carve-out (DESIGN.md §7): an
// SLB hit reports cached=true where the bare inner engine might have
// re-run the filter after a cuckoo eviction.
//
// Safety for concurrent use follows inner's: wrapping draco-concurrent
// yields a concurrency-safe engine whose hit path is lock-free; wrapping
// draco-sw still needs Synchronized for shared use.
func WithSLB(inner Engine, cfg SLBConfig) (Engine, error) {
	if cfg.Profile == nil {
		return nil, fmt.Errorf("engine: WithSLB(%s): nil profile", inner.Name())
	}
	ix, err := slb.IndexingByName(cfg.Indexing)
	if err != nil {
		return nil, err
	}
	geom := slb.Config{Sets: cfg.Sets, Ways: cfg.Ways, Indexing: ix}
	if _, err := slb.New(geom); err != nil {
		return nil, err
	}
	e := &slbEngine{
		inner: inner,
		name:  inner.Name() + "+slb",
		geom:  geom,
		obs:   cfg.Observer,
	}
	if fr, ok := inner.(fastResolver); ok {
		e.fast = fr
	}
	e.epoch.Store(1)
	e.masks.Store(buildMaskTable(cfg.Profile))
	e.pool.New = func() any {
		c, err := slb.New(e.geom)
		if err != nil {
			// Geometry was validated above; this cannot fail.
			panic(err)
		}
		stripe := int(e.nextStripe.Add(1)-1) % slbStripes
		e.workers.Add(1)
		return &slbWorker{cache: c, ctr: &e.stripes[stripe]}
	}
	return e, nil
}

func (e *slbEngine) Name() string { return e.name }

// slbHitDecision is what every SLB hit reports: the cache only ever holds
// plainly-allowed calls (action ActAllow), exactly what the inner engine
// reports for its own SPT/VAT hits.
func slbHitDecision() Decision {
	return Decision{Allowed: true, Cached: true, Action: seccomp.ActAllow}
}

// cacheable reports whether a decision may be recorded: only plain allows.
// LOG-style allows and denials always re-run the filter, mirroring the
// inner checkers (which never cache them either).
func cacheable(d Decision) bool {
	return d.Allowed && d.Action == seccomp.ActAllow
}

func (e *slbEngine) Check(sid int, args Args) Decision {
	epoch := e.epoch.Load()
	mt := e.masks.Load()
	if mt.bypass(sid) || (e.fast != nil && e.fast.FastResolved(sid)) {
		// Must-run programmable number (neither serve nor fill) or a
		// plane-resolved constant (the inner fast path beats any cache
		// probe): route straight through. Counter striping by SID keeps
		// hot constants from hammering one cache line.
		e.stripes[uint(sid)%slbStripes].bypassed.Add(1)
		return e.inner.Check(sid, args)
	}
	m := mt.mask(sid)
	pair := hashes.ArgSet(args, m)
	w := e.pool.Get().(*slbWorker)
	if w.cache.Lookup(sid, pair, epoch) {
		if m == 0 {
			w.ctr.hitsID.Add(1)
		} else {
			w.ctr.hitsArgs.Add(1)
		}
		e.pool.Put(w)
		dec := slbHitDecision()
		if e.obs != nil {
			e.obs.Observe(Observation{SID: sid, Decision: dec, CacheHit: true, Class: ClassSLBHit})
		}
		return dec
	}
	w.ctr.misses.Add(1)
	dec := e.inner.Check(sid, args)
	if cacheable(dec) {
		w.cache.Insert(sid, pair, epoch)
		w.ctr.fills.Add(1)
	}
	e.pool.Put(w)
	return dec
}

func (e *slbEngine) CheckBatch(calls []Call, dst []Decision) []Decision {
	dst = sizeBatch(dst, len(calls))
	if len(calls) == 0 {
		return dst
	}
	epoch := e.epoch.Load()
	mt := e.masks.Load()
	w := e.pool.Get().(*slbWorker)

	// Probe phase: serve hits, remember each miss's index and hash pair.
	// Stack buffers cover the common service batch sizes; an all-hit batch
	// allocates nothing beyond what the caller's dst already holds.
	var pairsA [stackBatch]hashes.Pair
	var missA [stackBatch]int32
	pairs := pairsA[:0]
	miss := missA[:0]
	if len(calls) > stackBatch {
		pairs = make([]hashes.Pair, 0, len(calls))
		miss = make([]int32, 0, len(calls))
	}
	var hitsID, hitsArgs, bypassed uint64
	for i, cl := range calls {
		m := mt.mask(cl.SID)
		pair := hashes.ArgSet(cl.Args, m)
		pairs = append(pairs, pair)
		if mt.bypass(cl.SID) || (e.fast != nil && e.fast.FastResolved(cl.SID)) {
			// Must-run programmable number or plane-resolved constant:
			// always forward, never fill.
			miss = append(miss, int32(i))
			bypassed++
			continue
		}
		if w.cache.Lookup(cl.SID, pair, epoch) {
			if m == 0 {
				hitsID++
			} else {
				hitsArgs++
			}
			dec := slbHitDecision()
			dst[i] = dec
			if e.obs != nil {
				e.obs.Observe(Observation{SID: cl.SID, Decision: dec, CacheHit: true, Class: ClassSLBHit})
			}
			continue
		}
		miss = append(miss, int32(i))
	}
	w.ctr.hitsID.Add(hitsID)
	w.ctr.hitsArgs.Add(hitsArgs)
	w.ctr.bypassed.Add(bypassed)
	w.ctr.misses.Add(uint64(len(miss)) - bypassed)

	// Miss phase: forward the residue as one inner batch (keeping the
	// inner engine's lock amortization), scatter results back, and record
	// the new allows.
	if len(miss) > 0 {
		mcalls := make([]Call, len(miss))
		for k, i := range miss {
			mcalls[k] = calls[i]
		}
		var fills uint64
		for k, dec := range e.inner.CheckBatch(mcalls, nil) {
			i := miss[k]
			dst[i] = dec
			if cacheable(dec) && !mt.bypass(calls[i].SID) &&
				(e.fast == nil || !e.fast.FastResolved(calls[i].SID)) {
				w.cache.Insert(calls[i].SID, pairs[i], epoch)
				fills++
			}
		}
		w.ctr.fills.Add(fills)
	}
	e.pool.Put(w)
	return dst
}

func (e *slbEngine) Stats() Stats {
	s := e.inner.Stats()
	sl := e.SLBStats()
	// SLB-served checks never reach the inner tables; fold them into the
	// aggregate so Checks stays "every call checked" and the hit-rate
	// arithmetic (SPT+VAT hits over checks) keeps meaning what it meant:
	// an ID-only SLB hit is the SPT fast path served closer to the caller,
	// an argument hit likewise for the VAT.
	s.Checks += sl.Hits
	s.SPTHits += sl.HitsIDOnly
	s.VATHits += sl.HitsArgs
	s.Classes[ClassSLBHit] += sl.Hits
	return s
}

// SLBStats sums the lookaside counters across all worker stripes.
func (e *slbEngine) SLBStats() SLBStats {
	var s SLBStats
	for i := range e.stripes {
		c := &e.stripes[i]
		s.HitsIDOnly += c.hitsID.Load()
		s.HitsArgs += c.hitsArgs.Load()
		s.Misses += c.misses.Load()
		s.Bypassed += c.bypassed.Load()
		s.Fills += c.fills.Load()
	}
	s.Hits = s.HitsIDOnly + s.HitsArgs
	s.Invalidations = e.invalidations.Load()
	s.Workers = e.workers.Load()
	s.WorkerBytes = e.geom.Sets * e.geom.Ways * 32
	return s
}

// SetProfile swaps the inner profile, then flash-invalidates every worker
// cache by bumping the epoch. Ordering matters: the inner swap and the new
// mask table are published before the epoch advances, so a checker that
// observes the new epoch is guaranteed to fill from the new profile —
// stale entries can linger only under the old epoch, where they can no
// longer hit. Checkers never block here.
func (e *slbEngine) SetProfile(p *seccomp.Profile) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.inner.SetProfile(p); err != nil {
		return err
	}
	e.masks.Store(buildMaskTable(p))
	e.epoch.Add(1)
	e.invalidations.Add(1)
	return nil
}

func (e *slbEngine) VATBytes() int { return e.inner.VATBytes() }

func (e *slbEngine) Describe() Desc {
	d := e.inner.Describe()
	d.Engine = e.name
	return d
}

func (e *slbEngine) Close() error { return e.inner.Close() }

// SLBStatsOf reports the lookaside statistics of an engine built by WithSLB
// (unwrapping a Synchronized shell if present); ok is false for engines
// without an SLB layer.
func SLBStatsOf(e Engine) (SLBStats, bool) {
	if s, wrapped := e.(*synchronized); wrapped {
		e = s.inner
	}
	if se, ok := e.(*slbEngine); ok {
		return se.SLBStats(), true
	}
	return SLBStats{}, false
}
