package engine

import (
	"bufio"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"draco/internal/core"
)

// Counters is an Observer accumulating per-latency-class and aggregate
// counts with pre-sized atomic counters: safe for concurrent engines, no
// allocation per observation. Every engine's Stats carries the same totals
// without the hook (tests hold the two equal); Counters is for callers that
// want them per attached observer.
type Counters struct {
	checks  atomic.Uint64
	hits    atomic.Uint64
	denied  atomic.Uint64
	cycles  atomic.Uint64
	byClass [NumLatencyClasses]atomic.Uint64
}

// Observe implements Observer.
func (c *Counters) Observe(o Observation) {
	c.checks.Add(1)
	if o.CacheHit {
		c.hits.Add(1)
	}
	if !o.Decision.Allowed {
		c.denied.Add(1)
	}
	if o.CheckCycles != 0 {
		c.cycles.Add(o.CheckCycles)
	}
	if o.Class < NumLatencyClasses {
		c.byClass[o.Class].Add(1)
	}
}

// Checks returns the number of observations.
func (c *Counters) Checks() uint64 { return c.checks.Load() }

// CacheHits returns the observed cache-served decisions.
func (c *Counters) CacheHits() uint64 { return c.hits.Load() }

// Denied returns the observed denials.
func (c *Counters) Denied() uint64 { return c.denied.Load() }

// CheckCycles returns the summed modeled check cycles (annotated engines).
func (c *Counters) CheckCycles() uint64 { return c.cycles.Load() }

// ByClass returns the count observed for one latency class.
func (c *Counters) ByClass(class LatencyClass) uint64 {
	if class >= NumLatencyClasses {
		return 0
	}
	return c.byClass[class].Load()
}

// TraceDump is an Observer writing one text line per check, for offline
// analysis of an engine's decision stream:
//
//	sid=0 allowed=true cached=true class=vat-hit cycles=0
//
// Writes are buffered and serialized under a mutex, so a TraceDump may be
// attached to a concurrent engine; Flush (or the owning engine's Close)
// drains the buffer.
type TraceDump struct {
	mu sync.Mutex
	w  *bufio.Writer
}

// NewTraceDump builds a trace-dump observer over w.
func NewTraceDump(w io.Writer) *TraceDump {
	return &TraceDump{w: bufio.NewWriter(w)}
}

// Observe implements Observer.
func (t *TraceDump) Observe(o Observation) {
	t.mu.Lock()
	fmt.Fprintf(t.w, "sid=%d allowed=%t cached=%t class=%s cycles=%d\n",
		o.SID, o.Decision.Allowed, o.Decision.Cached, o.Class, o.CheckCycles)
	t.mu.Unlock()
}

// Flush drains buffered lines to the underlying writer.
func (t *TraceDump) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.w.Flush()
}

// MultiObserver fans one observation out to several observers.
type MultiObserver []Observer

// Observe implements Observer.
func (m MultiObserver) Observe(o Observation) {
	for _, obs := range m {
		obs.Observe(o)
	}
}

// observeOutcome delivers one software-checker outcome to obs.
func observeOutcome(obs Observer, sid int, out *core.Outcome) {
	obs.Observe(Observation{SID: sid, Decision: out.Decision(), CacheHit: !out.FilterRan, Class: out.Class()})
}

// closeObserver flushes observers that buffer (engines call it from Close).
func closeObserver(obs Observer) error {
	if t, ok := obs.(*TraceDump); ok {
		return t.Flush()
	}
	return nil
}
