package main

// Layer probes for the traced run. Each replays the workload's own first
// calls through one layer's public function, from one goroutine, inside a
// span named after that function; counts come from public statistics and
// repeat exactly for a fixed seed.

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"draco/internal/concurrent"
	"draco/internal/core"
	"draco/internal/cuckoo"
	"draco/internal/engine"
	"draco/internal/hashes"
	"draco/internal/seccomp"
	"draco/internal/shm"
	"draco/internal/wire"
)

// probeReps is how many timed passes a probe makes; it reports their
// median.
const probeReps = 5

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink uint64

// prober runs the layer probes of one workload.
type prober struct {
	spec spec
	in   *inputs
	// ops is the part of the call sequence the probes replay.
	ops    []op
	tr     *tracer
	parent int
	// m collects the per-layer metrics; absent lists reference engines the
	// registry no longer has.
	m      map[string]float64
	absent []string
	// checkers are warmed sequential checkers, one per tenant, over
	// profile A; filters are their bitmap-mode filters.
	checkers []*core.Checker
	filters  []*seccomp.Filter
	// probes are the registered timing probes; held are the engines they
	// use, closed after measuring; err is the first error a pass met.
	probes []probe
	held   []engine.Engine
	err    error
}

func newProber(inst *instance, n int, tr *tracer, parent int) (*prober, error) {
	p := &prober{spec: inst.spec, in: inst.in, ops: inst.in.ops[:min(n, len(inst.in.ops))],
		tr: tr, parent: parent, m: map[string]float64{}}
	for _, ab := range inst.in.profiles {
		f, err := seccomp.NewFilterMode(ab[0], 0, seccomp.ExecBitmap)
		if err != nil {
			return nil, err
		}
		p.filters = append(p.filters, f)
		p.checkers = append(p.checkers, core.NewChecker(ab[0], seccomp.Chain{f}))
	}
	for i := range inst.in.ops {
		o := &inst.in.ops[i]
		p.checkers[o.tenant].Check(int(o.sid), o.args)
	}
	return p, nil
}

// probe is one registered timing probe. Probes are registered first and
// then measured round-robin — every probe once per round, probeReps timed
// rounds after one untimed — so that an episode of host interference, which
// lasts a second or two, spoils one round of every probe and not every
// pass of one.
type probe struct {
	// metrics the probe feeds; a timed probe has exactly one.
	metric, fn string
	calls      int
	prep, pass func()
	// custom, when set, replaces prep/pass: it measures by itself and
	// returns one value per metric it feeds.
	custom func() (map[string]float64, error)
}

// timed registers a probe that times pass (after the untimed prep, when
// set) inside a span named fn; metric becomes the median over the rounds
// of the time per call in ns — in us for a metric named *_us.
func (p *prober) timed(metric, fn string, calls int, prep, pass func()) {
	p.probes = append(p.probes, probe{metric: metric, fn: fn, calls: calls, prep: prep, pass: pass})
}

// fail keeps the first error a pass met.
func (p *prober) fail(err error) {
	if err != nil && p.err == nil {
		p.err = err
	}
}

// measure runs the registered probes round-robin and stores the medians.
func (p *prober) measure() error {
	samples := map[string][]float64{}
	for r := 0; r <= probeReps; r++ {
		for _, pr := range p.probes {
			id := p.tr.begin(pr.fn, p.parent)
			switch {
			case pr.custom != nil:
				vals, err := pr.custom()
				p.fail(err)
				for k, v := range vals {
					samples[k] = append(samples[k], v)
				}
			case pr.calls == 0:
				samples[pr.metric] = append(samples[pr.metric], 0)
			default:
				if pr.prep != nil {
					pr.prep()
				}
				t0 := time.Now()
				pr.pass()
				per := float64(time.Since(t0).Nanoseconds()) / float64(pr.calls)
				if strings.HasSuffix(pr.metric, "_us") {
					per /= 1e3
				}
				samples[pr.metric] = append(samples[pr.metric], per)
			}
			p.tr.end(id)
			if p.err != nil {
				return p.err
			}
		}
	}
	for k, v := range samples {
		p.m[k] = median(v[1:]) // the first round warms
	}
	return nil
}

func (p *prober) run() error {
	p.tables()
	p.filter()
	p.codec()
	if err := p.engines(); err != nil {
		return err
	}
	if err := p.concurrentLayer(); err != nil {
		return err
	}
	if err := p.rings(); err != nil {
		return err
	}
	err := p.measure()
	for _, e := range p.held {
		err = errors.Join(err, e.Close())
	}
	if err != nil {
		return err
	}
	p.m["engine.observer_ns"] -= p.m["engine.concurrent_ns"]
	p.m["concurrent.scaling_eff_2p"] = ratio(p.m["concurrent.check_ns_1p"], p.m["concurrent.check_ns_2p"])
	return p.counts()
}

// tables probes hashes, cuckoo and core: the table layers under the
// sequential checker.
func (p *prober) tables() {
	type hashItem struct {
		args engine.Args
		mask uint64
	}
	type sptItem struct {
		spt *core.SPT
		sid int
	}
	type vatItem struct {
		vat  *core.VAT
		tbl  *cuckoo.Table
		sid  int
		args engine.Args
	}
	var hs []hashItem
	var spts []sptItem
	var vats, hits []vatItem
	for i := range p.ops {
		o := &p.ops[i]
		chk := p.checkers[o.tenant]
		spts = append(spts, sptItem{chk.SPT, int(o.sid)})
		e := chk.SPT.Lookup(int(o.sid))
		if e == nil || !e.ChecksArgs() {
			continue
		}
		hs = append(hs, hashItem{o.args, e.ArgBitmask})
		it := vatItem{chk.VAT, chk.VAT.Table(int(o.sid)), int(o.sid), o.args}
		vats = append(vats, it)
		if it.tbl == nil {
			continue
		}
		if found, _, _ := it.tbl.Lookup(o.args); found {
			hits = append(hits, it)
		}
	}
	p.m["hashes.argset_share"] = ratio(float64(len(hs)), float64(len(p.ops)))
	p.timed("hashes.argset_ns", "hashes.ArgSet", len(hs), nil, func() {
		for i := range hs {
			sink += hashes.ArgSet(hs[i].args, hs[i].mask).H1
		}
	})
	p.timed("cuckoo.lookup_hit_ns", "cuckoo.Table.Lookup", len(hits), nil, func() {
		for i := range hits {
			_, way, _ := hits[i].tbl.Lookup(hits[i].args)
			sink += uint64(way)
		}
	})
	p.timed("core.spt_lookup_ns", "core.SPT.Lookup", len(spts), nil, func() {
		for i := range spts {
			if spts[i].spt.Lookup(spts[i].sid) != nil {
				sink++
			}
		}
	})
	p.timed("core.vat_lookup_ns", "core.VAT.Lookup", len(vats), nil, func() {
		for i := range vats {
			_, way, _ := vats[i].vat.Lookup(vats[i].sid, vats[i].args)
			sink += uint64(way)
		}
	})
	p.timed("core.checker_check_ns", "core.Checker.Check", len(p.ops), nil, func() {
		for i := range p.ops {
			o := &p.ops[i]
			if p.checkers[o.tenant].Check(int(o.sid), o.args).Allowed {
				sink++
			}
		}
	})

	// Inserts: refill empty copies of every warmed table with its own
	// entries, enough copies that a pass is long enough to time.
	type fill struct {
		src     *cuckoo.Table
		entries []cuckoo.Entry
		copies  []*cuckoo.Table
	}
	var fills []fill
	var evictions uint64
	entries := 0
	for _, chk := range p.checkers {
		for _, sid := range chk.VAT.SIDs() {
			t := chk.VAT.Table(sid)
			evictions += t.Evictions()
			entries += t.Len()
			fills = append(fills, fill{src: t, entries: t.Entries()})
		}
	}
	p.m["cuckoo.evictions"] = float64(evictions)
	copies := 0
	if entries > 0 {
		copies = (20_000 + entries - 1) / entries
	}
	for i := range fills {
		for c := 0; c < copies; c++ {
			fills[i].copies = append(fills[i].copies, cuckoo.NewWithProvision(fills[i].src.Cap(), 1, fills[i].src.Bitmask()))
		}
	}
	p.timed("cuckoo.insert_ns", "cuckoo.Table.Insert", entries*copies, func() {
		for _, f := range fills {
			for _, t := range f.copies {
				t.Clear()
			}
		}
	}, func() {
		for _, f := range fills {
			for _, t := range f.copies {
				for i := range f.entries {
					sink += t.Insert(f.entries[i].Args)
				}
			}
		}
	})
}

// filter probes the bitmap-mode seccomp filter: the cost Draco's caches
// exist to avoid.
func (p *prober) filter() {
	data := make([]seccomp.Data, len(p.ops))
	var insns, runs, bitmapHits uint64
	for i := range p.ops {
		o := &p.ops[i]
		data[i] = seccomp.Data{Nr: o.sid, Arch: seccomp.AuditArchX8664, Args: o.args}
		r := p.filters[o.tenant].Check(&data[i])
		if r.BitmapHit {
			bitmapHits++
		} else {
			runs++
			insns += uint64(r.Executed)
		}
	}
	p.m["seccomp.insns_per_run"] = ratio(float64(insns), float64(runs))
	p.m["seccomp.bitmap_hit_share"] = ratio(float64(bitmapHits), float64(len(p.ops)))
	p.timed("seccomp.filter_check_ns", "seccomp.Filter.Check", len(p.ops), nil, func() {
		for i := range p.ops {
			sink += uint64(p.filters[p.ops[i].tenant].Check(&data[i]).Executed)
		}
	})
	p.timed("seccomp.new_filter_us", "seccomp.NewFilterMode", 1, nil, func() {
		if f, err := seccomp.NewFilterMode(p.in.profiles[0][0], 0, seccomp.ExecBitmap); err == nil {
			sink += uint64(f.Len())
		}
	})
}

// tenantEngines builds and warms one engine per tenant through the
// registry; ok is false when the registry has no such engine.
func (p *prober) tenantEngines(name string, obs engine.Observer) (engines []engine.Engine, ok bool, err error) {
	if _, ok := engine.Lookup(name); !ok {
		return nil, false, nil
	}
	for _, ab := range p.in.profiles {
		e, err := engine.New(name, engine.Options{Profile: ab[0], Shards: servingShards, Routing: servingRoute, Observer: obs})
		if err != nil {
			return nil, true, fmt.Errorf("engine %s: %w", name, err)
		}
		engines = append(engines, e)
	}
	for i := range p.in.ops {
		o := &p.in.ops[i]
		engines[o.tenant].Check(int(o.sid), o.args)
	}
	return engines, true, nil
}

// engines times the reference engines, by registry name, on the same
// calls. One the registry no longer has reads 0 and is listed as absent.
func (p *prober) engines() error {
	timeEngine := func(metric, name string, obs engine.Observer) error {
		engines, ok, err := p.tenantEngines(name, obs)
		if err != nil {
			return err
		}
		if !ok {
			p.absent = append(p.absent, metric)
			p.m[metric] = 0
			return nil
		}
		p.held = append(p.held, engines...)
		p.timed(metric, "engine["+name+"].Check", len(p.ops), nil, func() {
			for i := range p.ops {
				o := &p.ops[i]
				if engines[o.tenant].Check(int(o.sid), o.args).Allowed {
					sink++
				}
			}
		})
		return nil
	}
	for _, e := range []struct{ metric, name string }{
		{"engine.filter_only_ns", "filter-only"},
		{"engine.draco_sw_ns", "draco-sw"},
		{"engine.concurrent_ns", servingEngine},
		{"engine.concurrent_slb_ns", "draco-concurrent+slb"},
	} {
		if err := timeEngine(e.metric, e.name, nil); err != nil {
			return err
		}
	}
	// The server attaches two Counters to every tenant engine. Registered
	// as the observed engine's time; run subtracts the bare engine's.
	obs := engine.MultiObserver{&engine.Counters{}, &engine.Counters{}}
	return timeEngine("engine.observer_ns", servingEngine, obs)
}

// servingChecker builds the sharded checker the serving engine wraps.
func servingChecker(p *seccomp.Profile) (*concurrent.Checker, error) {
	return concurrent.NewCheckerConfig(p, concurrent.Config{Shards: servingShards, Routing: concurrent.RouteBySyscall, Mode: seccomp.ExecBitmap})
}

// concurrentLayer probes the sharded checker: one and two callers, native
// batches, plane coverage, and the cost of a profile swap.
func (p *prober) concurrentLayer() error {
	var chks []*concurrent.Checker
	for _, ab := range p.in.profiles {
		c, err := servingChecker(ab[0])
		if err != nil {
			return err
		}
		chks = append(chks, c)
	}
	for i := range p.in.ops {
		o := &p.in.ops[i]
		chks[o.tenant].Check(int(o.sid), o.args)
	}
	// pass counts into a local, not the shared sink: two callers bumping one
	// word would measure that word's cache line, not the checker.
	pass := func(from int) (allowed uint64) {
		n := len(p.ops)
		for k := 0; k < n; k++ {
			o := &p.ops[(from+k)%n]
			if chks[o.tenant].Check(int(o.sid), o.args).Allowed {
				allowed++
			}
		}
		return allowed
	}
	p.timed("concurrent.check_ns_1p", "concurrent.Checker.Check", len(p.ops), nil, func() { sink += pass(0) })
	// Two callers, half a sequence apart; the time per call is what each
	// caller sees, so perfect scaling keeps it equal to the 1-caller time
	// (run derives scaling_eff_2p from the two).
	p.timed("concurrent.check_ns_2p", "concurrent.Checker.Check 2p", len(p.ops), nil, func() {
		var wg sync.WaitGroup
		var allowed [2]uint64
		for c := range allowed {
			wg.Add(1)
			go func() {
				defer wg.Done()
				allowed[c] = pass(c * len(p.ops) / 2)
			}()
		}
		wg.Wait()
		sink += allowed[0] + allowed[1]
	})

	calls := make([]concurrent.Call, len(p.ops))
	for i := range p.ops {
		calls[i] = concurrent.Call{SID: int(p.ops[i].sid), Args: p.ops[i].args}
	}
	whole := len(calls) - len(calls)%blockCalls
	var outs []core.Outcome
	p.timed("concurrent.checkbatch64_ns_per_call", "concurrent.Checker.CheckBatch", whole, nil, func() {
		for i := 0; i < whole; i += blockCalls {
			outs = chks[p.ops[i].tenant].CheckBatch(calls[i:i+blockCalls], outs)
			sink += uint64(len(outs))
		}
	})

	sids := map[[2]int32]bool{}
	resolved := 0
	for i := range p.ops {
		o := &p.ops[i]
		if k := [2]int32{o.tenant, o.sid}; !sids[k] {
			sids[k] = true
			if chks[o.tenant].FastResolved(int(o.sid)) {
				resolved++
			}
		}
	}
	p.m["concurrent.plane_coverage"] = ratio(float64(resolved), float64(len(sids)))

	// Swaps go to a checker of their own: they empty its tables, which must
	// not happen to the ones the probes above replay against.
	ab := p.in.profiles[0]
	if ab[1] == nil {
		ab[1] = ab[0]
	}
	swapped, err := servingChecker(ab[0])
	if err != nil {
		return err
	}
	swaps := 0
	p.timed("concurrent.set_profile_us", "concurrent.Checker.SetProfile", 4, nil, func() {
		for k := 0; k < 4; k++ {
			swaps++
			p.fail(swapped.SetProfile(ab[swaps%2]))
		}
	})
	return nil
}

// counts replays the calls once more through warmed serving engines with
// a Counters observer — with the churn workload's swaps — and reads the
// shares off the public statistics.
func (p *prober) counts() error {
	id := p.tr.begin("engine.Stats replay", p.parent)
	defer p.tr.end(id)
	obs := &engine.Counters{}
	engines, _, err := p.tenantEngines(servingEngine, obs)
	if err != nil {
		return err
	}
	stats := func() (s engine.Stats) {
		for _, e := range engines {
			es := e.Stats()
			s.Checks += es.Checks
			s.SPTHits += es.SPTHits
			s.VATHits += es.VATHits
			s.FilterRuns += es.FilterRuns
			s.Inserts += es.Inserts
			s.Denied += es.Denied
		}
		return s
	}
	var class0 [engine.NumLatencyClasses]uint64
	for c := range class0 {
		class0[c] = obs.ByClass(engine.LatencyClass(c))
	}
	s0 := stats()
	var swap *swapper
	if p.spec.churn {
		swap = newSwapper(engines, p.in.profiles, 1)
	}
	for i := range p.ops {
		o := &p.ops[i]
		engines[o.tenant].Check(int(o.sid), o.args)
		if swap != nil {
			swap.tick(0, 1)
		}
	}
	if swap != nil {
		if e := swap.err.Load(); e != nil {
			return *e
		}
	}
	s1 := stats()
	n := float64(len(p.ops))
	p.m["core.spt_hit_share"] = float64(s1.SPTHits-s0.SPTHits) / n
	p.m["core.vat_hit_share"] = float64(s1.VATHits-s0.VATHits) / n
	p.m["core.filter_run_share"] = float64(s1.FilterRuns-s0.FilterRuns) / n
	p.m["core.insert_share"] = float64(s1.Inserts-s0.Inserts) / n
	p.m["core.denied_share"] = float64(s1.Denied-s0.Denied) / n
	vat := 0
	for _, e := range engines {
		vat += e.VATBytes()
	}
	p.m["core.vat_bytes"] = float64(vat)
	for c := engine.LatencyClass(0); c < engine.NumLatencyClasses; c++ {
		p.m["engine.class."+c.String()+"_share"] = float64(obs.ByClass(c)-class0[c]) / n
	}
	p.m["concurrent.fast_hit_share"] = p.m["engine.class."+engine.ClassFastHit.String()+"_share"]
	for _, e := range engines {
		if err := e.Close(); err != nil {
			return err
		}
	}
	return nil
}

// codec probes the wire payload codecs and framing.
func (p *prober) codec() {
	n := len(p.ops)
	calls := make([]engine.Call, n)
	decs := make([]engine.Decision, n)
	for i := range p.ops {
		o := &p.ops[i]
		calls[i] = engine.Call{SID: int(o.sid), Args: o.args}
		decs[i] = engine.Decision{Allowed: o.allow, Cached: o.allow, Action: seccomp.ActKillProcess}
		if o.allow {
			decs[i].Action = seccomp.ActAllow
		}
	}
	buf := make([]byte, 0, 8192)
	req := wire.AppendCheckReq(nil, edgeTenant, calls[0])
	resp := wire.AppendCheckResp(nil, decs[0])
	reqs := make([]byte, 0, n*len(req))
	resps := make([]byte, 0, n*len(resp))
	for i := range calls {
		reqs = wire.AppendCheckReq(reqs, edgeTenant, calls[i])
		resps = wire.AppendCheckResp(resps, decs[i])
	}
	p.timed("wire.check_req_encode_ns", "wire.AppendCheckReq", n, nil, func() {
		for i := range calls {
			buf = wire.AppendCheckReq(buf[:0], edgeTenant, calls[i])
		}
		sink += uint64(len(buf))
	})
	p.timed("wire.check_req_decode_ns", "wire.DecodeCheckReq", n, nil, func() {
		for i := 0; i < n; i++ {
			_, c, _ := wire.DecodeCheckReq(reqs[i*len(req) : (i+1)*len(req)])
			sink += uint64(c.SID)
		}
	})
	p.timed("wire.check_resp_encode_ns", "wire.AppendCheckResp", n, nil, func() {
		for i := range decs {
			buf = wire.AppendCheckResp(buf[:0], decs[i])
		}
		sink += uint64(len(buf))
	})
	p.timed("wire.check_resp_decode_ns", "wire.DecodeCheckResp", n, nil, func() {
		for i := 0; i < n; i++ {
			if d, _ := wire.DecodeCheckResp(resps[i*len(resp) : (i+1)*len(resp)]); d.Allowed {
				sink++
			}
		}
	})

	// Batches of 64: request and response, both directions of one request.
	batches := n / blockCalls
	breq := wire.AppendBatchReq(nil, edgeTenant, calls[:blockCalls])
	bresp := wire.AppendBatchResp(nil, decs[:blockCalls])
	p.timed("wire.batch64_encode_ns", "wire.AppendBatchReq+AppendBatchResp", batches, nil, func() {
		for b := 0; b < batches; b++ {
			buf = wire.AppendBatchReq(buf[:0], edgeTenant, calls[b*blockCalls:(b+1)*blockCalls])
			buf = wire.AppendBatchResp(buf[:0], decs[b*blockCalls:(b+1)*blockCalls])
		}
		sink += uint64(len(buf))
	})
	var dst []engine.Decision
	p.timed("wire.batch64_decode_ns", "wire.DecodeBatchReq+DecodeBatchResp", batches, nil, func() {
		for b := 0; b < batches; b++ {
			if _, seq, err := wire.DecodeBatchReq(breq); err == nil {
				for i := 0; i < seq.Len(); i++ {
					sink += uint64(seq.At(i).SID)
				}
			}
			dst, _ = wire.DecodeBatchResp(bresp, dst[:0])
			sink += uint64(len(dst))
		}
	})

	// One frame through Writer.Send and Reader.Next over an in-memory pipe:
	// framing and buffering without the kernel.
	var pipe bytes.Buffer
	w, r := wire.NewWriter(&pipe), wire.NewReader(&pipe)
	p.timed("wire.frame_roundtrip_ns", "wire.Writer.Send+Reader.Next", n, nil, func() {
		for i := 0; i < n; i++ {
			if w.Send(wire.TypeCheckReq, uint64(i), req) == nil {
				if h, _, err := r.Next(); err == nil {
					sink += h.ID
				}
			}
		}
	})

	// Bytes a check puts on its edge, both directions, headers included.
	hdr := wire.HeaderSize
	if p.spec.edge == "shm" {
		hdr = shm.SlotHdrSize
	}
	switch {
	case p.spec.edge == "inproc":
		p.m["wire.bytes_per_check"] = 0
	case p.spec.block > 1:
		p.m["wire.bytes_per_check"] = float64(2*hdr+len(breq)+len(bresp)) / blockCalls
	default:
		p.m["wire.bytes_per_check"] = float64(2*hdr + len(req) + len(resp))
	}
}

// rings probes the shm ring operations and the doorbell on an in-memory
// region with the default geometry and the platform's best doorbell.
func (p *prober) rings() error {
	if !shm.Supported() {
		for _, k := range []string{"shm.claim_publish_ns", "shm.consume_release_ns", "shm.ring_pingpong_ns", "shm.doorbell_wake_us"} {
			p.m[k] = 0
			p.absent = append(p.absent, k)
		}
		return nil
	}
	l := shm.DefaultLayout()
	l.Doorbell = shm.PickDoorbell(shm.PlatformCaps()&^shm.CapDoorbellEventfd, shm.PlatformCaps())
	reg, err := shm.NewRegion(shm.NewBuffer(l), l, true)
	if err != nil {
		return err
	}
	// The socket doorbell's producer side is a frame on the control socket;
	// within one process the relay is Notify. Other kinds ignore SocketRing.
	var door *shm.Doorbell
	door, err = shm.NewDoorbell(l.Doorbell, reg.Complete, shm.DoorbellConfig{SocketRing: func() { door.Notify() }})
	if err != nil {
		return err
	}
	payload := wire.AppendCheckReq(nil, edgeTenant, engine.Call{SID: int(p.ops[0].sid), Args: p.ops[0].args})
	p.probes = append(p.probes,
		probe{fn: "shm.Ring.Claim+Publish / Consume+Release", custom: func() (map[string]float64, error) { return fillDrain(reg.Submit, payload) }},
		probe{fn: "shm.Doorbell.Ring->Sleep returns", custom: func() (map[string]float64, error) { return doorbellWake(reg.Complete, door), nil }})
	p.pingPong(reg, payload)
	return nil
}

// fillDrain fills the ring and drains it again, timing the two phases
// apart.
func fillDrain(ring *shm.Ring, payload []byte) (map[string]float64, error) {
	const rounds = 40
	typ := uint8(wire.TypeCheckReq)
	slots := ring.Slots()
	var fill, drain time.Duration
	var f shm.Frame
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		for k := 0; k < slots; k++ {
			pos, buf := ring.Claim()
			if err := ring.Publish(pos, typ, uint64(k), append(buf, payload...)); err != nil {
				return nil, err
			}
		}
		t1 := time.Now()
		for k := 0; k < slots; k++ {
			if ok, err := ring.Consume(&f); err != nil || !ok {
				return nil, fmt.Errorf("shm probe: consume: ok=%v err=%v", ok, err)
			}
			sink += f.ID
			ring.Release()
		}
		fill += t1.Sub(t0)
		drain += time.Since(t1)
	}
	ops := float64(rounds * slots)
	return map[string]float64{
		"shm.claim_publish_ns":   float64(fill.Nanoseconds()) / ops,
		"shm.consume_release_ns": float64(drain.Nanoseconds()) / ops,
	}, nil
}

// pingPong registers the probe that bounces frames between two goroutines
// over the ring pair, both polling and yielding, never parking: the floor
// of a ring round trip.
func (p *prober) pingPong(reg *shm.Region, payload []byte) {
	const trips = 20_000
	typ := uint8(wire.TypeCheckReq)
	take := func(r *shm.Ring, f *shm.Frame) error {
		for {
			ok, err := r.Consume(f)
			if err != nil {
				return err
			}
			if ok {
				r.Release()
				return nil
			}
			runtime.Gosched()
		}
	}
	put := func(r *shm.Ring, id uint64) error {
		pos, buf := r.Claim()
		return r.Publish(pos, typ, id, append(buf, payload...))
	}
	p.timed("shm.ring_pingpong_ns", "shm.Ring ping-pong", trips, nil, func() {
		done := make(chan error, 1)
		go func() {
			var f shm.Frame
			for k := 0; k < trips; k++ {
				if err := take(reg.Submit, &f); err != nil {
					done <- err
					return
				}
				if err := put(reg.Complete, f.ID); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		var f shm.Frame
		var err error
		for k := 0; k < trips && err == nil; k++ {
			if err = put(reg.Submit, uint64(k)); err == nil {
				err = take(reg.Complete, &f)
			}
		}
		if err != nil {
			// Closing the rings releases the echo goroutine.
			reg.Invalidate()
		}
		p.fail(errors.Join(err, <-done))
	})
}

// doorbellWake times a parked consumer's wake, from the producer's Ring()
// to the consumer running again: the median of 20 wakes, in us.
func doorbellWake(ring *shm.Ring, door *shm.Doorbell) map[string]float64 {
	const wakes = 20
	parked := make(chan struct{})
	resumed := make(chan time.Time)
	go func() {
		for k := 0; k < wakes; k++ {
			token := door.Prepare()
			ring.SetParked(true)
			parked <- struct{}{}
			door.Sleep(token, nil)
			t := time.Now()
			ring.SetParked(false)
			resumed <- t
		}
	}()
	var us []float64
	for k := 0; k < wakes; k++ {
		<-parked
		// Give the consumer time to actually block in Sleep.
		time.Sleep(200 * time.Microsecond)
		t0 := time.Now()
		door.Ring()
		us = append(us, float64((<-resumed).Sub(t0).Nanoseconds())/1e3)
	}
	return map[string]float64{"shm.doorbell_wake_us": median(us)}
}
