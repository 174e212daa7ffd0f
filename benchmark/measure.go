package main

// The closed loop and its timed segments. Each caller goroutine issues its
// next request only when the previous one has answered, the way a syscall's
// caller blocks until the check answers.

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"
)

// minSamples is the least room a caller's sample buffer has (4 B each).
const minSamples = 1 << 16

// loop is the callers' state that persists across segments: where each is
// in the call sequence, and its reusable sample buffer. A buffer has room
// for twice the requests the caller's previous run would issue in the
// coming one (a run that outgrows it keeps its first samples), so the
// harness's own heap, and with it the collector's pacing, follows the
// workload's rate instead of a worst case.
type loop struct {
	inst    *instance
	pos     []int
	samples [][]uint32
	perSec  []float64
	// merged is the scratch buffer a segment's samples are sorted in.
	merged []uint32
	// failed and falseAllow accumulate over every call the loop issued,
	// warm-up included.
	attempted, failed, falseAllow uint64
}

func newLoop(inst *instance) *loop {
	n := inst.spec.callers
	l := &loop{inst: inst, pos: make([]int, n), samples: make([][]uint32, n), perSec: make([]float64, n)}
	blocks := len(inst.in.ops) / blockCalls
	for c := range l.pos {
		// Callers start evenly spaced, on a block boundary.
		l.pos[c] = blocks * c / n * blockCalls
	}
	return l
}

// segment is one timed segment's measurements.
type segment struct {
	checks, failed uint64
	// rate is checks per second: the sum over callers of checks/elapsed.
	rate float64
	// p50..max are quantiles of the caller-visible latency in ns, over all
	// samples of the segment: per request, or per call where requests are
	// timing blocks.
	p50, p99, p999, max float64
	samples             int
	cpuNs               int64
	allocs              uint64
}

type callerResult struct {
	requests, failed, falseAllow uint64
	elapsed                      time.Duration
}

// run drives every caller for d and returns the segment. With a tracer,
// each request is recorded as a span under parent.
func (l *loop) run(d time.Duration, tr *tracer, parent int) (segment, error) {
	spec := l.inst.spec
	res := make([]callerResult, spec.callers)
	var bufs []*callSpans
	if tr != nil {
		for c := 0; c < spec.callers; c++ {
			bufs = append(bufs, tr.callBuffer(requestSpanName(spec), parent, c))
		}
	}
	for c := range l.samples {
		if want := max(minSamples, int(2*l.perSec[c]*d.Seconds())); cap(l.samples[c]) < want {
			l.samples[c] = make([]uint32, 0, want)
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, err := cpuNanos()
	if err != nil {
		return segment{}, err
	}
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < spec.callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var spans *callSpans
			if bufs != nil {
				spans = bufs[c]
			}
			l.caller(c, deadline, spans, &res[c])
		}()
	}
	wg.Wait()
	cpu1, err := cpuNanos()
	if err != nil {
		return segment{}, err
	}
	runtime.ReadMemStats(&ms1)

	seg := segment{cpuNs: cpu1 - cpu0, allocs: ms1.Mallocs - ms0.Mallocs}
	lat := l.merged[:0]
	for c, r := range res {
		seg.checks += r.requests * uint64(spec.block)
		seg.failed += r.failed
		seg.rate += float64(r.requests*uint64(spec.block)) / r.elapsed.Seconds()
		l.falseAllow += r.falseAllow
		l.perSec[c] = float64(r.requests) / r.elapsed.Seconds()
		lat = append(lat, l.samples[c]...)
	}
	l.attempted += seg.checks
	l.failed += seg.failed
	slices.Sort(lat)
	l.merged = lat
	perSample := 1.0
	if spec.perCall {
		perSample = float64(spec.block)
	}
	seg.samples = len(lat)
	seg.p50, seg.p99 = quantileOf(lat, 0.50)/perSample, quantileOf(lat, 0.99)/perSample
	seg.p999, seg.max = quantileOf(lat, 0.999)/perSample, quantileOf(lat, 1)/perSample
	if seg.checks == 0 {
		return seg, fmt.Errorf("%s: a %v segment completed no request", spec.name, d)
	}
	return seg, nil
}

// requestSpanName names a caller-visible request by the public function
// it calls.
func requestSpanName(s spec) string {
	switch {
	case s.edge == "inproc":
		return fmt.Sprintf("engine.Check x%d", s.block)
	case s.block > 1:
		return "client.CheckBatch"
	}
	return "client.Check"
}

func (l *loop) caller(c int, deadline time.Time, spans *callSpans, out *callerResult) {
	inst := l.inst
	ops, block := inst.in.ops, inst.spec.block
	pos, samples := l.pos[c], l.samples[c][:0]
	start := time.Now()
	t0 := start
	for t0.Before(deadline) {
		if pos+block > len(ops) {
			pos = 0
		}
		failed, falseAllow := inst.tgt.do(c, ops[pos:pos+block])
		pos += block
		t1 := time.Now()
		out.requests++
		out.failed += uint64(failed)
		out.falseAllow += uint64(falseAllow)
		if len(samples) < cap(samples) {
			samples = append(samples, uint32(min(t1.Sub(t0), math.MaxUint32)))
		}
		if spans != nil {
			spans.add(t0, t1)
		}
		if inst.swap != nil && inst.swap.tick(c, block) {
			// A swap is the operator's act, not part of the next check.
			t1 = time.Now()
		}
		t0 = t1
	}
	out.elapsed = t0.Sub(start)
	l.pos[c], l.samples[c] = pos, samples
}

// bestShare is where in the order of its per-segment values a metric is
// read: a tenth of the way in from the better end.
const bestShare = 0.10

// endToEndOf reduces segments to the end-to-end metrics. A timing is the
// best decile of its per-segment values: the host's interference only ever
// slows a segment, and comes in episodes that can cover most of a run, so
// the undisturbed segments say what the program costs and the median says
// what the neighbours did. The two metrics that read 0 on a healthy run
// are shares of the whole run, so that no failure is left out.
func endToEndOf(segs []segment) map[string]float64 {
	col := func(better string, f func(segment) float64) float64 {
		v := make([]float64, len(segs))
		for i, s := range segs {
			v[i] = f(s)
		}
		slices.Sort(v)
		if better == "higher" {
			return quantileOf(v, 1-bestShare)
		}
		return quantileOf(v, bestShare)
	}
	var checks, failed, allocs uint64
	for _, s := range segs {
		checks, failed, allocs = checks+s.checks, failed+s.failed, allocs+s.allocs
	}
	return map[string]float64{
		"checks_per_s":     col("higher", func(s segment) float64 { return s.rate }),
		"check_p50_ns":     col("lower", func(s segment) float64 { return s.p50 }),
		"check_p99_ns":     col("lower", func(s segment) float64 { return s.p99 }),
		"cpu_ns_per_check": col("lower", func(s segment) float64 { return float64(s.cpuNs) / float64(s.checks) }),
		"allocs_per_check": float64(allocs) / float64(checks),
		"failed_share":     float64(failed) / float64(checks),
	}
}
