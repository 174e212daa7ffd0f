package main

// One workload run, untraced (the end-to-end metrics) or traced (the
// per-layer metrics and the budget line).

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// config sizes a run. The defaults are the measured configuration; the
// smoke test shrinks everything.
type config struct {
	seed int64
	// events is the length of the call sequence.
	events int
	// setUps is how many times set-up runs; setup_s is their median and the
	// last one is measured.
	setUps int
	// warmUp is the untimed closed-loop warm-up before the segments.
	warmUp time.Duration
	// segments x segment are the timed segments of an untraced run; a
	// metric is the best decile of its per-segment values (see endToEndOf).
	segments int
	segment  time.Duration
	// tracedSegment is the length of the traced run's two segments.
	tracedSegment time.Duration
	// probeCalls is how many calls each layer probe replays.
	probeCalls int
	// outDir receives trace files and the shm edge's scratch directories.
	outDir string
}

// defaultConfig splits seconds of measuring into the run's phases.
func defaultConfig(seed int64, seconds int) config {
	total := time.Duration(seconds) * time.Second
	return config{
		seed: seed, events: 200_000, setUps: 5, warmUp: 2 * time.Second,
		segments: 40, segment: total / 40, tracedSegment: total / 3,
		probeCalls: 100_000, outDir: "out",
	}
}

// report is what one workload run measured.
type report struct {
	workload  string
	metrics   map[string]float64
	attempted uint64
	failed    uint64
	absent    []string
}

// errFalseAllow marks the one failure that must never be reported as a
// number: a call the oracle denies was allowed.
var errFalseAllow = errors.New("false allow")

// scratchDir names a fresh directory for one set-up's shm edge.
func (cfg config) scratchDir(n int) string {
	return filepath.Join(cfg.outDir, fmt.Sprintf("shm-%d-%d", os.Getpid(), n))
}

// setUpTimed runs set-up cfg.setUps times, tearing down all but the last,
// and returns the last instance with the median set-up time.
func setUpTimed(s spec, cfg config) (*instance, float64, error) {
	var secs []float64
	for n := 0; ; n++ {
		t0 := time.Now()
		inst, err := setUp(s, cfg.seed, cfg.events, cfg.scratchDir(n))
		if err != nil {
			return nil, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if len(secs) == cfg.setUps {
			return inst, median(secs), nil
		}
		if err := inst.close(); err != nil {
			return nil, 0, err
		}
		// Each set-up starts from a collected heap, so its time and the
		// peak memory do not depend on when the collector last ran.
		runtime.GC()
	}
}

// verdict folds the loop's oracle accounting into the report. A false
// allow is an error, whatever else was measured.
func (r *report) verdict(l *loop) error {
	r.attempted, r.failed = l.attempted, l.failed
	if l.falseAllow > 0 {
		return fmt.Errorf("%s: %d of %d calls: %w", r.workload, l.falseAllow, l.attempted, errFalseAllow)
	}
	return nil
}

// closeLogged tears an instance down at the end of a run; a failure there
// cannot change what was measured, so it is only reported.
func closeLogged(inst *instance) {
	if err := inst.close(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: tear-down: %v\n", inst.spec.name, err)
	}
}

// runUntraced measures a workload's end-to-end metrics.
func runUntraced(s spec, cfg config, log io.Writer) (*report, error) {
	inst, setupS, err := setUpTimed(s, cfg)
	if err != nil {
		return nil, err
	}
	defer closeLogged(inst)
	rep := &report{workload: s.name}
	sha, err := inst.in.sha256Hex()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "%s: inputs_sha256=%s callers=%d block=%d calls=%d set_ups=%d segments=%dx%v\n",
		s.name, sha, s.callers, s.block, len(inst.in.ops), cfg.setUps, cfg.segments, cfg.segment)
	runtime.GC()
	l := newLoop(inst)
	if _, err := l.run(cfg.warmUp, nil, 0); err != nil {
		return nil, err
	}
	segs := make([]segment, cfg.segments)
	for i := range segs {
		if segs[i], err = l.run(cfg.segment, nil, 0); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "%s: segment %d: %.0f checks/s p50=%.1f ns p99=%.1f ns cpu=%.1f ns/check samples=%d failed=%d\n",
			s.name, i+1, segs[i].rate, segs[i].p50, segs[i].p99, float64(segs[i].cpuNs)/float64(segs[i].checks), segs[i].samples, segs[i].failed)
	}
	rep.metrics = endToEndOf(segs)
	rep.metrics["setup_s"] = setupS
	if rep.metrics["rss_peak_mb"], err = rssPeakMB(); err != nil {
		return nil, err
	}
	if err := rep.verdict(l); err != nil {
		return nil, err
	}
	if l.failed > 0 {
		fmt.Fprintf(log, "%s: %d of %d calls failed; last error: %v\n", s.name, l.failed, l.attempted, inst.err())
	}
	return rep, nil
}

// edgeCounters snapshots the edge's public counters.
type edgeCounters struct {
	parks, wakes                         uint64
	wireChecks, wireFlushes, batchFrames uint64
	shmFrames                            uint64
	spinBudget                           int
	wireCheckP50Ns                       uint64
}

func (inst *instance) counters() edgeCounters {
	var c edgeCounters
	if inst.shmc != nil {
		rs := inst.shmc.RingStats()
		c.parks, c.wakes, c.spinBudget = rs.Parks, rs.Wakes, rs.SpinBudget
	}
	if inst.srv != nil {
		m := inst.srv.Metrics()
		c.wireChecks, c.wireFlushes = m.WireChecks.Load(), m.WireFlushes.Load()
		c.batchFrames, c.shmFrames = m.WireBatchLatency.Count(), m.ShmFrames.Load()
		c.wireCheckP50Ns = m.WireCheckLatency.Quantile(0.5)
	}
	return c
}

// runTraced measures a workload's per-layer metrics: one untraced and one
// traced segment of the closed loop (their difference is the tracing
// overhead), the edge's counters across the traced segment, and the layer
// probes. It writes the spans to cfg.outDir/trace-<workload>.json.
func runTraced(s spec, cfg config, host hostInfo, log io.Writer) (*report, error) {
	tr := newTracer()
	root := tr.begin("workload "+s.name, -1)
	id := tr.begin("set-up", root)
	inst, err := setUp(s, cfg.seed, cfg.events, cfg.scratchDir(0))
	tr.end(id)
	if err != nil {
		return nil, err
	}
	defer closeLogged(inst)
	rep := &report{workload: s.name}
	sha, err := inst.in.sha256Hex()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "%s: inputs_sha256=%s callers=%d block=%d calls=%d traced_segment=%v probe_calls=%d\n",
		s.name, sha, s.callers, s.block, len(inst.in.ops), cfg.tracedSegment, cfg.probeCalls)
	runtime.GC()
	l := newLoop(inst)
	if _, err := l.run(cfg.warmUp/2, nil, 0); err != nil {
		return nil, err
	}
	id = tr.begin("segment untraced", root)
	plain, err := l.run(cfg.tracedSegment, nil, 0)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	c0 := inst.counters()
	id = tr.begin("segment traced", root)
	traced, err := l.run(cfg.tracedSegment, tr, id)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	c1 := inst.counters()
	// The probes need only the inputs; tear the edge down first so its
	// goroutines and timers do not share the CPUs with them.
	if err := inst.close(); err != nil {
		return nil, err
	}

	id = tr.begin("probes", root)
	p, err := newProber(inst, cfg.probeCalls, tr, id)
	if err == nil {
		err = p.run()
	}
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s: probes: %w", s.name, err)
	}
	m := p.m
	rep.metrics, rep.absent = m, p.absent

	kchecks := float64(traced.checks) / 1000
	m["shm.parks_per_kcheck"] = float64(c1.parks-c0.parks) / kchecks
	m["shm.wakes_per_kcheck"] = float64(c1.wakes-c0.wakes) / kchecks
	m["shm.spin_budget"] = float64(c1.spinBudget)
	flushes := float64(c1.wireFlushes - c0.wireFlushes)
	m["server.coalesce_mean_batch"] = ratio(float64(c1.wireChecks-c0.wireChecks), flushes)
	m["server.flushes_per_kcheck"] = flushes / kchecks
	frames := c1.shmFrames - c0.shmFrames
	if s.edge == "wire" {
		frames = (c1.wireChecks - c0.wireChecks) + (c1.batchFrames - c0.batchFrames)
	}
	m["server.frames_per_kcheck"] = float64(frames) / kchecks
	m["server.wire_check_latency_p50_ns"] = float64(c1.wireCheckP50Ns)
	m["client.check_p99_ns"] = plain.p99
	m["client.check_p999_ns"] = plain.p999
	m["client.check_max_ns"] = plain.max
	m["client.allocs_per_check"] = float64(plain.allocs) / float64(plain.checks)
	m["trace.overhead_share"] = 1 - traced.rate/plain.rate

	p50 := plain.p50
	terms, explained := budget(s, m)
	m["budget.explained_share"] = ratio(explained, p50)
	fmt.Fprintf(log, "%s: budget: check_p50_ns=%.1f explained=%.1f ns (%.1f%%) residual=%.1f ns — scheduler hand-offs, contention and kernel time\n",
		s.name, p50, explained, 100*m["budget.explained_share"], p50-explained)
	for _, t := range terms {
		fmt.Fprintf(log, "%s: budget:   %-34s %10.1f ns\n", s.name, t.what, t.ns)
	}

	tr.end(root)
	path := filepath.Join(cfg.outDir, "trace-"+s.name+".json")
	if err := tr.write(path, s.name, cfg.seed, host); err != nil {
		return nil, fmt.Errorf("writing %s: %w", path, err)
	}
	fmt.Fprintf(log, "%s: spans written to %s\n", s.name, path)
	return rep, rep.verdict(l)
}

// term is one line of a budget: a probe cost on the path a caller blocks
// on, per caller-visible request.
type term struct {
	what string
	ns   float64
}

// budget lists the probe costs on the blocking path of one caller-visible
// request of workload s and their sum, to be held against the end-to-end
// check_p50_ns. Below the edge the layers nest (engine wraps the sharded
// checker, which wraps the sequential checker and its tables), so their
// self costs are differences of the nested probes and add up to the
// engine's time; the decision plane answers some checks before the locked
// path is entered, hence the locked share. The ring round trip (request
// and response through the ring pair between two polling goroutines)
// contains the four ring operations, so those are not added again.
func budget(s spec, m map[string]float64) ([]term, float64) {
	locked := 1 - m["concurrent.fast_hit_share"]
	coreNs := m["core.checker_check_ns"] * locked
	hash := m["hashes.argset_ns"] * m["hashes.argset_share"]
	probe := (m["core.vat_lookup_ns"] - m["hashes.argset_ns"]) * m["hashes.argset_share"]
	engineTerms := []term{
		{"engine: decision, classify, observer call", m["engine.concurrent_ns"] - m["concurrent.check_ns_1p"]},
		{"concurrent: plane, state load, shard lock", m["concurrent.check_ns_1p"] - coreNs},
		{"core: checker self (SPT, stats, miss path)", coreNs - hash - probe},
		{"core+cuckoo: VAT probe after the hash", probe},
		{"hashes: argument-set CRC pair", hash},
	}
	// us per wake x wakes per 1000 checks = ns per check.
	wakeNsPerCheck := m["shm.doorbell_wake_us"] * m["shm.parks_per_kcheck"]
	var terms []term
	switch {
	case s.edge == "inproc":
		terms = engineTerms
	case s.block > 1:
		terms = []term{
			{"wire: batch request+response encode", m["wire.batch64_encode_ns"]},
			{"wire: batch request+response decode", m["wire.batch64_decode_ns"]},
			{"shm: ring round trip, two polling goroutines", m["shm.ring_pingpong_ns"]},
			{"concurrent: CheckBatch of 64", blockCalls * m["concurrent.checkbatch64_ns_per_call"]},
			{"engine: 64 observer calls", blockCalls * m["engine.observer_ns"]},
			{"shm: reaper wakes (wake time x parks/request)", wakeNsPerCheck * blockCalls},
		}
	default:
		terms = []term{
			{"wire: request encode, response decode", m["wire.check_req_encode_ns"] + m["wire.check_resp_decode_ns"]},
			{"wire: request decode, response encode", m["wire.check_req_decode_ns"] + m["wire.check_resp_encode_ns"]},
		}
		if s.edge == "shm" {
			terms = append(terms,
				term{"shm: ring round trip, two polling goroutines", m["shm.ring_pingpong_ns"]},
				term{"shm: reaper wakes (wake time x parks/check)", wakeNsPerCheck})
		} else {
			terms = append(terms, term{"wire: 2x frame send+next (no kernel)", 2 * m["wire.frame_roundtrip_ns"]})
		}
		terms = append(terms, term{"engine: observers", m["engine.observer_ns"]})
		terms = append(terms, engineTerms...)
	}
	var sum float64
	for _, t := range terms {
		sum += t.ns
	}
	return terms, sum
}
