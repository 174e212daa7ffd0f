package client

// Batcher unit tests against an in-process fake transport: fold
// correctness (every caller gets its own call's decision back, in any
// interleaving), the lone-caller fast path (a batch of one, flushed
// inline), aggregation under concurrency, error propagation, the
// transport cap, and the steady-state zero-allocation pin for the fold
// path.

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"draco/internal/engine"
	"draco/internal/seccomp"
	"draco/internal/server"
	"draco/internal/shm"
)

// fakeTransport answers CheckBatch in-process: each decision echoes its
// call (FilterInstructions = SID, Action encodes Args[0]) so tests can
// prove responses landed with the right caller. Optionally gates batches
// to force folds to accumulate.
type fakeTransport struct {
	cap     int // MaxBatchCalls answer; 0 = no cap
	failAll error

	mu      sync.Mutex
	batches [][]engine.Call
	gate    chan struct{} // when non-nil, CheckBatch waits per batch
	entered chan struct{} // when gating, signals each CheckBatch entry

	calls   atomic.Int64
	maxSeen atomic.Int64
}

func decideFor(c engine.Call) engine.Decision {
	return engine.Decision{
		Allowed:            true,
		FilterInstructions: c.SID,
		Action:             seccomp.Errno(uint16(c.Args[0])),
	}
}

func (f *fakeTransport) CheckBatch(ctx context.Context, tenant string, calls []engine.Call, dst []engine.Decision) ([]engine.Decision, error) {
	if f.gate != nil {
		if f.entered != nil {
			f.entered <- struct{}{}
		}
		<-f.gate
	}
	if f.failAll != nil {
		return nil, f.failAll
	}
	f.mu.Lock()
	cp := make([]engine.Call, len(calls))
	copy(cp, calls)
	f.batches = append(f.batches, cp)
	f.mu.Unlock()
	f.calls.Add(int64(len(calls)))
	for {
		max := f.maxSeen.Load()
		if int64(len(calls)) <= max || f.maxSeen.CompareAndSwap(max, int64(len(calls))) {
			break
		}
	}
	dst = dst[:0]
	for _, c := range calls {
		dst = append(dst, decideFor(c))
	}
	return dst, nil
}

func (f *fakeTransport) Check(ctx context.Context, tenant string, sid int, args engine.Args) (engine.Decision, error) {
	ds, err := f.CheckBatch(ctx, tenant, []engine.Call{{SID: sid, Args: args}}, nil)
	if err != nil {
		return engine.Decision{}, err
	}
	return ds[0], nil
}

func (f *fakeTransport) PutProfile(ctx context.Context, tenant, engineName string, profileJSON []byte) (server.ProfileResponse, error) {
	return server.ProfileResponse{Tenant: tenant}, nil
}

func (f *fakeTransport) Stats(ctx context.Context, tenant string) (server.StatsResponse, error) {
	return server.StatsResponse{Tenant: tenant}, nil
}

func (f *fakeTransport) Close() error { return nil }

func (f *fakeTransport) MaxBatchCalls(tenant string) int {
	if f.cap > 0 {
		return f.cap
	}
	return DefaultMaxFold
}

// TestBatcherLoneCaller proves the fast path: a sequential caller is its
// own flusher, every check goes out as a batch of one immediately.
func TestBatcherLoneCaller(t *testing.T) {
	tr := &fakeTransport{}
	b := NewBatcher(tr, BatcherOptions{})
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		d, err := b.Check(ctx, "t", i, engine.Args{uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if want := decideFor(engine.Call{SID: i, Args: engine.Args{uint64(i)}}); d != want {
			t.Fatalf("check %d: got %+v, want %+v", i, d, want)
		}
	}
	if got := tr.maxSeen.Load(); got != 1 {
		t.Fatalf("lone caller produced a batch of %d", got)
	}
	if got := len(tr.batches); got != 10 {
		t.Fatalf("%d batches for 10 sequential checks", got)
	}
}

// waitQueued polls until tenant's fold holds at least n pending waiters
// (the in-flight batch not included).
func waitQueued(t *testing.T, b *Batcher, tenant string, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		b.mu.Lock()
		f := b.folds[tenant]
		b.mu.Unlock()
		if f != nil {
			f.mu.Lock()
			q := len(f.waiters)
			f.mu.Unlock()
			if q >= n {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("fold never accumulated %d waiters", n)
		}
		runtime.Gosched()
	}
}

// TestBatcherFolds proves aggregation: with the first flusher blocked
// inside the transport, callers that pile up behind its in-flight batch
// fold into one shared frame, and each still receives exactly its own
// decision. The gate/entered handshake makes the schedule deterministic
// even on one CPU.
func TestBatcherFolds(t *testing.T) {
	tr := &fakeTransport{gate: make(chan struct{}), entered: make(chan struct{}, 64)}
	b := NewBatcher(tr, BatcherOptions{})
	ctx := context.Background()

	const callers = 64
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	check := func(g int) {
		defer wg.Done()
		d, err := b.Check(ctx, "t", g, engine.Args{uint64(g)})
		if err != nil {
			errs <- err
			return
		}
		if want := decideFor(engine.Call{SID: g, Args: engine.Args{uint64(g)}}); d != want {
			errs <- errors.New("caller got someone else's decision")
		}
	}
	// The first caller becomes the flusher and blocks inside CheckBatch...
	wg.Add(1)
	go check(0)
	<-tr.entered
	// ...so the rest can only enqueue behind its in-flight batch.
	for g := 1; g < callers; g++ {
		wg.Add(1)
		go check(g)
	}
	waitQueued(t, b, "t", callers-1)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// Release the blocked batch, then pair each further CheckBatch entry
	// with a release until every caller is answered.
	tr.gate <- struct{}{}
	for {
		select {
		case <-tr.entered:
			tr.gate <- struct{}{}
		case <-done:
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if got := tr.calls.Load(); got != callers {
				t.Fatalf("transport saw %d calls, want %d", got, callers)
			}
			if got := tr.maxSeen.Load(); got != callers-1 {
				t.Fatalf("fold flushed a max batch of %d, want %d", got, callers-1)
			}
			if got := len(tr.batches); got != 2 {
				t.Fatalf("%d batches for %d callers, want 2 (1 + folded %d)", got, callers, callers-1)
			}
			return
		}
	}
}

// TestBatcherRespectsTransportCap proves the fold honors a transport's
// per-batch limit (the shm slot capacity): 31 queued callers drain in
// cap-sized cuts, never one big frame.
func TestBatcherRespectsTransportCap(t *testing.T) {
	tr := &fakeTransport{cap: 4, gate: make(chan struct{}), entered: make(chan struct{}, 32)}
	b := NewBatcher(tr, BatcherOptions{})
	ctx := context.Background()

	const callers = 32
	var wg sync.WaitGroup
	check := func(g int) {
		defer wg.Done()
		if _, err := b.Check(ctx, "t", g, engine.Args{uint64(g)}); err != nil {
			t.Error(err)
		}
	}
	wg.Add(1)
	go check(0)
	<-tr.entered
	for g := 1; g < callers; g++ {
		wg.Add(1)
		go check(g)
	}
	waitQueued(t, b, "t", callers-1)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	tr.gate <- struct{}{}
	for {
		select {
		case <-tr.entered:
			tr.gate <- struct{}{}
		case <-done:
			if got := tr.maxSeen.Load(); got != 4 {
				t.Fatalf("max batch %d, want the transport cap of 4", got)
			}
			if got := tr.calls.Load(); got != callers {
				t.Fatalf("transport saw %d calls, want %d", got, callers)
			}
			return
		}
	}
}

// TestBatcherErrorPropagates proves a failed flush fails every folded
// caller with the transport's error.
func TestBatcherErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	b := NewBatcher(&fakeTransport{failAll: boom}, BatcherOptions{})
	if _, err := b.Check(context.Background(), "t", 1, engine.Args{}); !errors.Is(err, boom) {
		t.Fatalf("got %v, want %v", err, boom)
	}
}

// TestBatcherPerTenantFolds proves tenants never share a frame.
func TestBatcherPerTenantFolds(t *testing.T) {
	tr := &fakeTransport{}
	b := NewBatcher(tr, BatcherOptions{})
	ctx := context.Background()
	if _, err := b.Check(ctx, "a", 1, engine.Args{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Check(ctx, "b", 2, engine.Args{2}); err != nil {
		t.Fatal(err)
	}
	if len(tr.batches) != 2 || len(tr.batches[0]) != 1 || len(tr.batches[1]) != 1 {
		t.Fatalf("batches: %+v", tr.batches)
	}
}

// TestZeroAllocsBatcherFold pins the fold path's steady-state allocations
// at zero, mirroring the ring pin in internal/shm: the waiter, the
// calls/outs scratch, and the decision hand-off are all pooled or reused.
// scripts/check.sh runs this without -race (the detector perturbs alloc
// accounting).
func TestZeroAllocsBatcherFold(t *testing.T) {
	if shm.RaceEnabled {
		t.Skip("allocation accounting is perturbed under the race detector")
	}
	bt := NewBatcher(echoTransport{&fakeTransport{}}, BatcherOptions{})
	ctx := context.Background()
	if _, err := bt.Check(ctx, "t", 1, engine.Args{1}); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(2000, func() {
		if _, err := bt.Check(ctx, "t", 1, engine.Args{1}); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("Batcher fold path allocates %.2f allocs/op, want 0", avg)
	}
}

// BenchmarkBatcherFold pins the fold path's steady-state allocations at
// zero: scripts/check.sh fails the build if this regresses. The waiter,
// the calls/outs scratch, and the decision hand-off are all pooled or
// reused; the transport is an in-process echo so only Batcher overhead is
// measured.
func BenchmarkBatcherFold(b *testing.B) {
	tr := &fakeTransport{}
	// Bypass the recording fake: batches/maxSeen bookkeeping allocates.
	bt := NewBatcher(echoTransport{tr}, BatcherOptions{})
	ctx := context.Background()
	if _, err := bt.Check(ctx, "t", 1, engine.Args{1}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bt.Check(ctx, "t", 1, engine.Args{1}); err != nil {
			b.Fatal(err)
		}
	}
}

// echoTransport is the zero-bookkeeping fake for the allocation pin.
type echoTransport struct{ *fakeTransport }

func (e echoTransport) CheckBatch(ctx context.Context, tenant string, calls []engine.Call, dst []engine.Decision) ([]engine.Decision, error) {
	dst = dst[:0]
	for _, c := range calls {
		dst = append(dst, decideFor(c))
	}
	return dst, nil
}

func (e echoTransport) Check(ctx context.Context, tenant string, sid int, args engine.Args) (engine.Decision, error) {
	return decideFor(engine.Call{SID: sid, Args: args}), nil
}
