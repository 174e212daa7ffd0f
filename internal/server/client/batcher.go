package client

// Client-side call aggregation. A Batcher sits in front of any Transport
// and folds concurrent Check calls into CheckBatch frames: callers enqueue
// onto a per-tenant fold queue, and whichever caller finds the queue idle
// becomes the flusher for everything that accumulated behind it. A lone
// caller therefore flushes itself immediately (a batch of one, no added
// latency), while N concurrent callers collapse into a handful of frames.
// This is where aggregation lives (AnyCall-style, in the caller's hands):
// the server checks each frame as it arrives and never folds across
// connections.
//
// A small time window backstops the fold for staggered arrivals, and a
// size bound (the transport's slot capacity for shm) caps frame size.

import (
	"context"
	"sync"
	"time"

	"draco/internal/engine"
	"draco/internal/server"
)

// DefaultFoldWindow is the aggregation backstop: a fold older than this is
// flushed by the timer even if no caller is draining the queue.
const DefaultFoldWindow = 50 * time.Microsecond

// DefaultMaxFold bounds calls per flushed batch when the transport does
// not impose a tighter limit.
const DefaultMaxFold = 512

// BatcherOptions configures NewBatcher.
type BatcherOptions struct {
	// MaxFold bounds calls folded into one CheckBatch (0 = 512, capped by
	// the transport's per-batch limit for shm transports).
	MaxFold int
	// FoldWindow is the flush backstop for staggered arrivals (0 = 50µs).
	FoldWindow time.Duration
}

// batchCapper is implemented by transports with a hard per-batch size
// limit (the shm client's slot capacity).
type batchCapper interface {
	MaxBatchCalls(tenant string) int
}

// Batcher folds concurrent Check calls into CheckBatch frames over an
// underlying Transport. It implements Transport itself, so it can drop in
// anywhere a transport is used. Check is safe for concurrent use; the
// remaining methods delegate straight to the underlying transport.
type Batcher struct {
	tr      Transport
	maxFold int
	window  time.Duration

	mu    sync.Mutex
	folds map[string]*fold
}

// fold is one tenant's aggregation queue.
type fold struct {
	b      *Batcher
	tenant string
	max    int

	mu      sync.Mutex
	waiters []*foldWaiter
	// inflight is set while a caller drains the queue; new arrivals
	// enqueue and wait for it.
	inflight bool
	timer    *time.Timer

	// scratch is the flusher's working set, reused across flushes (the
	// lone flusher owns it exclusively).
	scratch foldScratch
}

// foldScratch is one flush's working set.
type foldScratch struct {
	calls []engine.Call
	outs  []engine.Decision
	batch []*foldWaiter
}

// foldWaiter is one caller's slot in a fold. Pooled.
type foldWaiter struct {
	call engine.Call
	d    engine.Decision
	err  error
	done chan struct{}
}

var foldWaiterPool = sync.Pool{New: func() any { return &foldWaiter{done: make(chan struct{}, 1)} }}

// NewBatcher wraps tr in a client-side aggregator.
func NewBatcher(tr Transport, opts BatcherOptions) *Batcher {
	maxFold := opts.MaxFold
	if maxFold <= 0 {
		maxFold = DefaultMaxFold
	}
	window := opts.FoldWindow
	if window <= 0 {
		window = DefaultFoldWindow
	}
	return &Batcher{
		tr:      tr,
		maxFold: maxFold,
		window:  window,
		folds:   make(map[string]*fold),
	}
}

// foldFor returns tenant's fold, creating it on first use.
func (b *Batcher) foldFor(tenant string) *fold {
	b.mu.Lock()
	f := b.folds[tenant]
	if f == nil {
		max := b.maxFold
		if c, ok := b.tr.(batchCapper); ok {
			if cap := c.MaxBatchCalls(tenant); cap < max {
				max = cap
			}
		}
		f = &fold{b: b, tenant: tenant, max: max}
		b.folds[tenant] = f
	}
	b.mu.Unlock()
	return f
}

// Check enqueues one call onto the tenant's fold and waits for its
// decision. The enqueueing caller that finds the fold idle flushes it —
// batching emerges from concurrency instead of added latency.
func (b *Batcher) Check(ctx context.Context, tenant string, sid int, args engine.Args) (engine.Decision, error) {
	f := b.foldFor(tenant)
	w := foldWaiterPool.Get().(*foldWaiter)
	w.call = engine.Call{SID: sid, Args: args}
	w.d, w.err = engine.Decision{}, nil

	f.mu.Lock()
	f.waiters = append(f.waiters, w)
	if !f.inflight {
		// Nobody is flushing: this caller drains the queue (and anything
		// that piles up while its flush frames are in flight).
		f.inflight = true
		f.mu.Unlock()
		f.run()
	} else {
		if f.timer == nil {
			f.timer = time.AfterFunc(b.window, f.timerFlush)
		}
		f.mu.Unlock()
	}

	select {
	case <-w.done:
		d, err := w.d, w.err
		foldWaiterPool.Put(w)
		return d, err
	case <-ctx.Done():
		// The flusher owns w until it signals done; wait it out so the
		// waiter can be pooled, then honor the result it produced.
		<-w.done
		d, err := w.d, w.err
		foldWaiterPool.Put(w)
		return d, err
	}
}

// timerFlush is the window backstop: if the queue still has waiters and
// nobody is flushing, drain it from the timer goroutine.
func (f *fold) timerFlush() {
	f.mu.Lock()
	f.timer = nil
	if f.inflight || len(f.waiters) == 0 {
		f.mu.Unlock()
		return
	}
	f.inflight = true
	f.mu.Unlock()
	f.run()
}

// run drains the fold until it is empty: cut a batch, send it, complete
// its waiters, repeat. One goroutine runs this at a time per fold (the
// inflight flag), so it reuses the fold's own scratch and the steady-state
// fold allocates nothing.
func (f *fold) run() {
	s := &f.scratch
	for {
		f.mu.Lock()
		if len(f.waiters) == 0 {
			f.inflight = false
			f.mu.Unlock()
			return
		}
		n := len(f.waiters)
		if n > f.max {
			n = f.max
		}
		s.batch = append(s.batch[:0], f.waiters[:n]...)
		rest := copy(f.waiters, f.waiters[n:])
		for i := rest; i < len(f.waiters); i++ {
			f.waiters[i] = nil
		}
		f.waiters = f.waiters[:rest]
		f.mu.Unlock()

		s.calls = s.calls[:0]
		for _, w := range s.batch {
			s.calls = append(s.calls, w.call)
		}
		outs, err := f.b.tr.CheckBatch(context.Background(), f.tenant, s.calls, s.outs[:0])
		if err == nil {
			s.outs = outs
		}
		for i, w := range s.batch {
			if err != nil {
				w.err = err
			} else {
				w.d = outs[i]
			}
			s.batch[i] = nil
			w.done <- struct{}{}
		}
	}
}

// CheckBatch delegates: an explicit batch is already aggregated.
func (b *Batcher) CheckBatch(ctx context.Context, tenant string, calls []engine.Call, dst []engine.Decision) ([]engine.Decision, error) {
	return b.tr.CheckBatch(ctx, tenant, calls, dst)
}

// PutProfile delegates to the underlying transport.
func (b *Batcher) PutProfile(ctx context.Context, tenant, engineName string, profileJSON []byte) (server.ProfileResponse, error) {
	return b.tr.PutProfile(ctx, tenant, engineName, profileJSON)
}

// Stats delegates to the underlying transport.
func (b *Batcher) Stats(ctx context.Context, tenant string) (server.StatsResponse, error) {
	return b.tr.Stats(ctx, tenant)
}

// Close delegates to the underlying transport.
func (b *Batcher) Close() error { return b.tr.Close() }
