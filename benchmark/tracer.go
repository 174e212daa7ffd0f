package main

// The traced run's span recorder. Spans are recorded from the benchmark's
// own files, around each call into a layer's public functions; they stay
// in memory and are written out, with per-span self time, when the run
// ends.

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

const (
	// maxCallSpans bounds the call spans one caller keeps in memory (16 B
	// each); further calls are counted as dropped.
	maxCallSpans = 1 << 20
	// writtenCallSpans bounds the call spans per caller written to the
	// file; the per-name summary still covers every span kept.
	writtenCallSpans = 20_000
)

// span is one structural span: the run, its phases, and each probe.
type span struct {
	name       string
	parent     int // index into tracer.spans, -1 for the root
	start, end int64
}

// callSpans holds one caller's request spans under one parent: they share
// a name, and request k of caller c has id c<<40|k.
type callSpans struct {
	t0      time.Time
	name    string
	parent  int
	caller  int
	recs    []callRec
	dropped uint64
}

type callRec struct{ start, end int64 }

// tracer collects spans; begin/end may be called from any goroutine, a
// callSpans only from the caller that owns it.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	calls []*callSpans
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a structural span and returns its index.
func (t *tracer) begin(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: t.now()})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	t.mu.Lock()
	t.spans[i].end = t.now()
	t.mu.Unlock()
}

// callBuffer registers a caller's request-span buffer under parent.
func (t *tracer) callBuffer(name string, parent, caller int) *callSpans {
	cs := &callSpans{t0: t.t0, name: name, parent: parent, caller: caller, recs: make([]callRec, 0, maxCallSpans)}
	t.mu.Lock()
	t.calls = append(t.calls, cs)
	t.mu.Unlock()
	return cs
}

func (cs *callSpans) add(start, end time.Time) {
	if len(cs.recs) == cap(cs.recs) {
		cs.dropped++
		return
	}
	cs.recs = append(cs.recs, callRec{int64(start.Sub(cs.t0)), int64(end.Sub(cs.t0))})
}

// spanJSON is a span as written to the trace file.
type spanJSON struct {
	Name    string `json:"name"`
	ID      uint64 `json:"id"`
	Parent  int    `json:"parent"`
	Request uint64 `json:"request,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// nameSummary aggregates every span kept under one name.
type nameSummary struct {
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalNs int64  `json:"total_ns"`
	SelfNs  int64  `json:"self_ns"`
}

type traceFile struct {
	Workload string        `json:"workload"`
	Seed     int64         `json:"seed"`
	Host     hostInfo      `json:"host"`
	Note     string        `json:"note"`
	Dropped  uint64        `json:"call_spans_dropped"`
	Summary  []nameSummary `json:"summary"`
	Spans    []spanJSON    `json:"spans"`
}

// covered is the length of the union of intervals clipped to [lo,hi].
func covered(iv []callRec, lo, hi int64) int64 {
	slices.SortFunc(iv, func(a, b callRec) int { return cmp.Compare(a.start, b.start) })
	var total int64
	at := lo
	for _, r := range iv {
		s, e := max(r.start, at), min(r.end, hi)
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

// write computes self times and writes the trace file. A structural span's
// self time is its duration minus the part its children cover; a request
// span has no children (spans inside the program are a later change), so
// its self time is its duration.
func (t *tracer) write(path, workload string, seed int64, host hostInfo) error {
	children := make([][]callRec, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], callRec{s.start, s.end})
		}
	}
	for _, cs := range t.calls {
		children[cs.parent] = append(children[cs.parent], cs.recs...)
	}
	out := traceFile{Workload: workload, Seed: seed, Host: host,
		Note: fmt.Sprintf("every structural span is written; of each caller's request spans the first %d are written and all are summarised", writtenCallSpans)}
	byName := map[string]*nameSummary{}
	sum := func(name string, dur, self int64) {
		ns := byName[name]
		if ns == nil {
			ns = &nameSummary{Name: name}
			byName[name] = ns
		}
		ns.Count++
		ns.TotalNs += dur
		ns.SelfNs += self
	}
	for i, s := range t.spans {
		self := (s.end - s.start) - covered(children[i], s.start, s.end)
		sum(s.name, s.end-s.start, self)
		out.Spans = append(out.Spans, spanJSON{Name: s.name, ID: uint64(i), Parent: s.parent, StartNs: s.start, EndNs: s.end, SelfNs: self})
	}
	id := uint64(len(t.spans))
	for _, cs := range t.calls {
		out.Dropped += cs.dropped
		for k, r := range cs.recs {
			sum(cs.name, r.end-r.start, r.end-r.start)
			if k < writtenCallSpans {
				out.Spans = append(out.Spans, spanJSON{Name: cs.name, ID: id, Parent: cs.parent,
					Request: uint64(cs.caller)<<40 | uint64(k+1), StartNs: r.start, EndNs: r.end, SelfNs: r.end - r.start})
				id++
			}
		}
	}
	for _, ns := range byName {
		out.Summary = append(out.Summary, *ns)
	}
	slices.SortFunc(out.Summary, func(a, b nameSummary) int { return cmp.Compare(b.TotalNs, a.TotalNs) })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
