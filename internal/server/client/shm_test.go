package client

// Caller-side reaping tests for the shm client. The protocol tests drive
// the server end by hand — the test accepts the control socket, creates
// the region and publishes completions itself — so it decides when, and
// whether, each call is answered: context expiry and teardown while the
// leader is parked on the doorbell, and promotion of a follower once the
// leader has left. The hammer and the allocation pin run against a real
// dracod shm front end. scripts/check.sh runs TestShm* under -race and
// the ZeroAllocs pin without it.

import (
	"context"
	"errors"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"draco/internal/engine"
	"draco/internal/seccomp"
	"draco/internal/server"
	"draco/internal/shm"
	"draco/internal/syscalls"
	"draco/internal/wire"
)

// ringPeer is a hand-driven server end of one shm connection.
type ringPeer struct {
	t    testing.TB
	reg  *shm.Region
	door *shm.Doorbell // the completion ring's doorbell, rung by hand
}

// dialHandDriven serves one handshake by hand with doorbell kind (futex or
// socket) and returns the dialled client with the server end of its rings.
// Cleanup closes the client first, then releases the server end.
func dialHandDriven(t testing.TB, kind shm.DoorbellKind) (*Shm, *ringPeer) {
	t.Helper()
	if !shm.Supported() {
		t.Skip("shm transport unsupported on this platform")
	}
	if kind == shm.DoorbellFutex && !shm.PlatformCaps().Has(shm.CapDoorbellFutex) {
		t.Skip("platform lacks the futex doorbell")
	}
	dir := t.TempDir()
	ln, err := net.Listen("unix", filepath.Join(dir, server.ShmSocketName))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })

	type dialed struct {
		sc  *Shm
		err error
	}
	dialc := make(chan dialed, 1)
	go func() {
		sc, err := DialShm(dir, ShmOptions{})
		dialc <- dialed{sc, err}
	}()

	nc, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	h, _, err := wire.NewReader(nc).Next()
	if err != nil || h.Type != wire.TypeRingReq {
		t.Fatalf("handshake request: %v frame, err %v", h.Type, err)
	}
	l := shm.DefaultLayout()
	l.SubmitSlots, l.CompleteSlots = 16, 16
	l.Doorbell = kind
	path := filepath.Join(dir, "ring-1.shm")
	reg, err := shm.CreateFile(path, l)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	w := wire.NewWriter(nc)
	door, err := shm.NewDoorbell(kind, reg.Complete, shm.DoorbellConfig{
		SocketRing: func() { w.Send(wire.TypeWake, 0, nil) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Send(wire.TypeRingResp, h.ID, []byte(path)); err != nil {
		t.Fatal(err)
	}
	d := <-dialc
	if d.err != nil {
		t.Fatal(d.err)
	}
	t.Cleanup(func() { d.sc.Close() })
	if got := d.sc.RingStats().Doorbell; got != kind {
		t.Fatalf("negotiated %v doorbell, want %v", got, kind)
	}
	return d.sc, &ringPeer{t: t, reg: reg, door: door}
}

// poll waits for cond under the shared backoff ladder, failing the test
// after 10 s.
func (p *ringPeer) poll(what string, cond func() bool) {
	p.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var bo shm.Backoff
	for !cond() {
		if time.Now().After(deadline) {
			p.t.Fatalf("timed out waiting for %s", what)
		}
		bo.Wait()
	}
}

// next consumes the next submitted frame and returns its request id.
func (p *ringPeer) next() uint64 {
	p.t.Helper()
	var f shm.Frame
	p.poll("a submission", func() bool {
		ok, err := p.reg.Submit.Consume(&f)
		if err != nil {
			p.t.Fatal(err)
		}
		return ok
	})
	id := f.ID
	p.reg.Submit.Release()
	return id
}

// answer publishes a single-check decision for id and rings the doorbell
// if the client's consumer has parked, as dracod's responder does.
func (p *ringPeer) answer(id uint64, d engine.Decision) {
	p.t.Helper()
	pos, buf := p.reg.Complete.Claim()
	if buf == nil {
		p.t.Fatal("completion ring closed")
	}
	if err := p.reg.Complete.Publish(pos, uint8(wire.TypeCheckResp), id, wire.AppendCheckResp(buf, d)); err != nil {
		p.t.Fatal(err)
	}
	if p.reg.Complete.ConsumerParked() {
		p.door.Ring()
	}
}

// waitParked returns once the client's completion consumer — which can
// only be the caller holding the reap role — has parked on the doorbell.
func (p *ringPeer) waitParked() {
	p.t.Helper()
	p.poll("the leader to park", p.reg.Complete.ConsumerParked)
}

// pendingCalls reads the in-flight table's size.
func (s *Shm) pendingCalls() int {
	s.tab.mu.Lock()
	defer s.tab.mu.Unlock()
	return len(s.tab.pending)
}

func testSID(t testing.TB, name string) int {
	t.Helper()
	in, ok := syscalls.ByName(name)
	if !ok {
		t.Fatalf("unknown syscall %q", name)
	}
	return in.Num
}

// TestShmParkedLeaderHonoursContext: the server never answers, so the lone
// caller leads, exhausts its spin budget and parks in a futex wait bounded
// at one second; its 20 ms deadline must still end the call promptly. The
// connection stays usable, and the cancelled call's late completion is
// dropped without disturbing the next one.
func TestShmParkedLeaderHonoursContext(t *testing.T) {
	sc, peer := dialHandDriven(t, shm.DoorbellFutex)
	read := testSID(t, "read")

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := sc.Check(ctx, "t", read, engine.Args{1})
	took := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("unanswered check returned %v, want context.DeadlineExceeded", err)
	}
	if took > 250*time.Millisecond {
		t.Fatalf("deadline of 20ms honoured after %v: the parked leader slept through it", took)
	}
	if sc.RingStats().Parks == 0 {
		t.Fatal("the leader never parked: the test did not reach the doorbell sleep")
	}
	stale := peer.next()
	if n := sc.pendingCalls(); n != 0 {
		t.Fatalf("%d calls pending after the cancelled one returned", n)
	}

	want := engine.Decision{Allowed: true, Cached: true}
	got := make(chan error, 1)
	go func() {
		d, err := sc.Check(context.Background(), "t", read, engine.Args{2})
		if err == nil && d != want {
			err = errors.New("second check got the wrong decision")
		}
		got <- err
	}()
	id := peer.next()
	peer.answer(stale, engine.Decision{}) // nobody waits for it any more
	peer.answer(id, want)
	if err := <-got; err != nil {
		t.Fatal(err)
	}
}

// TestShmCloseWhileParked closes the connection under one parked leader and
// two followers. All three must return the terminal error, and Close must
// not release the mapping under the leader (a fault, not a test failure,
// if it did): it returns only once it has held the reap role itself.
func TestShmCloseWhileParked(t *testing.T) {
	for _, kind := range []shm.DoorbellKind{shm.DoorbellFutex, shm.DoorbellSocket} {
		t.Run(kind.String(), func(t *testing.T) {
			sc, peer := dialHandDriven(t, kind)
			read := testSID(t, "read")
			errs := make(chan error, 3)
			check := func(arg uint64) {
				_, err := sc.Check(context.Background(), "t", read, engine.Args{arg})
				errs <- err
			}
			go check(0)
			peer.next()
			peer.waitParked()
			go check(1)
			go check(2)
			peer.next()
			peer.next()

			sc.Close()
			if !sc.reapMu.TryLock() {
				t.Fatal("Close returned with the reap role still held")
			}
			sc.reapMu.Unlock()
			for i := 0; i < 3; i++ {
				if err := <-errs; err == nil || err.Error() != "shm: client closed" {
					t.Fatalf("caller %d returned %v, want the terminal error", i, err)
				}
			}
			if _, err := sc.Check(context.Background(), "t", read, engine.Args{3}); err == nil {
				t.Fatal("check on a closed connection succeeded")
			}
		})
	}
}

// TestShmCancelThenCloseWhileParked is the usual shutdown, cancel() then
// Close(), under a parked leader. The cancellation rings the doorbell from
// a goroutine of its own; Close must not release the mapping (futex word)
// under that ring, which would be a fault rather than a test failure, so
// the leader may not give up the reap role while its ring is in flight.
func TestShmCancelThenCloseWhileParked(t *testing.T) {
	for _, kind := range []shm.DoorbellKind{shm.DoorbellFutex, shm.DoorbellSocket} {
		t.Run(kind.String(), func(t *testing.T) {
			for round := 0; round < 20; round++ {
				t.Run("", func(t *testing.T) {
					sc, peer := dialHandDriven(t, kind)
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					errc := make(chan error, 1)
					go func() {
						_, err := sc.Check(ctx, "t", testSID(t, "read"), engine.Args{1})
						errc <- err
					}()
					peer.next()
					peer.waitParked()
					cancel()
					sc.Close()
					// Whichever of the two the caller saw first.
					if err := <-errc; !errors.Is(err, context.Canceled) && (err == nil || err.Error() != "shm: client closed") {
						t.Fatalf("caller returned %v, want context.Canceled or the terminal error", err)
					}
				})
			}
		})
	}
}

// TestShmFollowerPromoted: A leads and parks, B submits behind it. The
// server answers A, and answers B only after A has returned — by then
// nobody holds the reap role unless A's exit promoted B. B must complete
// without any further call on the connection to reap for it.
func TestShmFollowerPromoted(t *testing.T) {
	for _, kind := range []shm.DoorbellKind{shm.DoorbellFutex, shm.DoorbellSocket} {
		t.Run(kind.String(), func(t *testing.T) {
			sc, peer := dialHandDriven(t, kind)
			read := testSID(t, "read")
			type result struct {
				d   engine.Decision
				err error
			}
			check := func(arg uint64) chan result {
				c := make(chan result, 1)
				go func() {
					d, err := sc.Check(context.Background(), "t", read, engine.Args{arg})
					c <- result{d, err}
				}()
				return c
			}
			wantA := engine.Decision{Allowed: true}
			wantB := engine.Decision{Allowed: true, Cached: true}

			a := check(0)
			idA := peer.next()
			peer.waitParked() // A holds the reap role
			b := check(1)
			idB := peer.next()

			peer.answer(idA, wantA)
			if r := <-a; r.err != nil || r.d != wantA {
				t.Fatalf("A: %+v, %v", r.d, r.err)
			}
			peer.answer(idB, wantB)
			select {
			case r := <-b:
				if r.err != nil || r.d != wantB {
					t.Fatalf("B: %+v, %v", r.d, r.err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("B stranded: its completion is published and nobody reaps it")
			}
			if n := sc.pendingCalls(); n != 0 {
				t.Fatalf("%d calls still pending", n)
			}
		})
	}
}

// dialRealServer starts a dracod shm front end on a fresh Server and dials
// it.
func dialRealServer(t testing.TB, opts server.Options, copts ShmOptions) *Shm {
	t.Helper()
	if !shm.Supported() {
		t.Skip("shm transport unsupported on this platform")
	}
	ss, err := server.New(opts).NewSessionHub(server.SessionOptions{}).NewShmServer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	go ss.Serve()
	t.Cleanup(func() { ss.Close() })
	sc, err := DialShm(ss.Dir(), copts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sc.Close() })
	return sc
}

// TestShmCallerReapHammer storms one connection from 16 goroutines with
// single checks, batches and calls whose context is cancelled before or
// during the wait, so the reap role changes hands constantly and leaders
// keep leaving with followers pending. Every decision that comes back must
// equal the in-process engine's, nobody may hang, and the in-flight table
// must end empty.
func TestShmCallerReapHammer(t *testing.T) {
	p := seccomp.DockerDefault()
	sc := dialRealServer(t, server.Options{DefaultProfile: p}, ShmOptions{})
	ref, err := engine.New("draco-concurrent", engine.Options{Profile: p})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	// A fixed call set, warmed on both sides, so every later decision is the
	// steady-state one whatever order the goroutines run in.
	var calls []engine.Call
	for _, name := range []string{"read", "write", "close", "futex", "init_module", "mount"} {
		for a := uint64(0); a < 4; a++ {
			calls = append(calls, engine.Call{SID: testSID(t, name), Args: engine.Args{a, 0, 64}})
		}
	}
	bg := context.Background()
	want := make([]engine.Decision, len(calls))
	for round := 0; round < 2; round++ {
		for i, c := range calls {
			if _, err := sc.Check(bg, "t", c.SID, c.Args); err != nil {
				t.Fatal(err)
			}
			want[i] = ref.Check(c.SID, c.Args)
		}
	}

	const goroutines, perG = 16, 300
	ctx, cancelAll := context.WithTimeout(bg, 2*time.Minute)
	defer cancelAll()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var ds []engine.Decision
			for i := 0; i < perG; i++ {
				k := (g*31 + i) % len(calls)
				switch i % 8 {
				case 3: // a batch
					n := 1 + (g+i)%(len(calls)-k)
					var err error
					ds, err = sc.CheckBatch(ctx, "t", calls[k:k+n], ds)
					if err != nil {
						t.Errorf("goroutine %d batch %d: %v", g, i, err)
						return
					}
					for j, d := range ds {
						if d != want[k+j] {
							t.Errorf("goroutine %d batch %d call %d: shm %+v, in-process %+v", g, i, j, d, want[k+j])
							return
						}
					}
				case 5, 6: // cancelled before the call, or while it waits
					cctx, cancel := context.WithCancel(ctx)
					if i%8 == 5 {
						cancel()
					} else {
						go cancel()
					}
					d, err := sc.Check(cctx, "t", calls[k].SID, calls[k].Args)
					cancel()
					if err == nil && d != want[k] {
						t.Errorf("goroutine %d cancelled check %d: shm %+v, in-process %+v", g, i, d, want[k])
						return
					}
					if err != nil && !errors.Is(err, context.Canceled) {
						t.Errorf("goroutine %d cancelled check %d: %v", g, i, err)
						return
					}
				default:
					d, err := sc.Check(ctx, "t", calls[k].SID, calls[k].Args)
					if err != nil {
						t.Errorf("goroutine %d check %d: %v", g, i, err)
						return
					}
					if d != want[k] {
						t.Errorf("goroutine %d check %d: shm %+v, in-process %+v", g, i, d, want[k])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n := sc.pendingCalls(); n != 0 {
		t.Fatalf("%d calls still pending after every caller returned", n)
	}
	// The role is free and the connection still answers.
	if d, err := sc.Check(bg, "t", calls[0].SID, calls[0].Args); err != nil || d != want[0] {
		t.Fatalf("check after the storm: %+v, %v", d, err)
	}
}

// TestShmCancelledStormDoesNotWedge: callers whose contexts are already
// cancelled submit but leave without waiting, so on small rings their
// un-reaped completions fill the completion ring, the server stalls
// publishing, and the submission ring fills behind it. Producers that find
// it full must reap; otherwise every caller spins in the claim with nobody
// holding the reap role. After the storm a healthy call must complete.
func TestShmCancelledStormDoesNotWedge(t *testing.T) {
	sc := dialRealServer(t,
		server.Options{DefaultProfile: seccomp.DockerDefault()},
		ShmOptions{SubmitSlots: 4, CompleteSlots: 4})
	read := testSID(t, "read")
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	const goroutines, perG = 8, 2000
	stormed := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, err := sc.Check(cancelled, "t", read, engine.Args{uint64(i % 4)}); err != nil && !errors.Is(err, context.Canceled) {
					t.Errorf("cancelled check: %v", err)
					return
				}
			}
		}()
	}
	go func() { wg.Wait(); close(stormed) }()
	select {
	case <-stormed:
	case <-time.After(30 * time.Second):
		t.Fatal("wedged: cancelled callers are stuck submitting and nobody reaps")
	}

	ctx, cancelHealthy := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelHealthy()
	if d, err := sc.Check(ctx, "t", read, engine.Args{0}); err != nil || !d.Allowed {
		t.Fatalf("healthy check after the storm: %+v, %v", d, err)
	}
	if n := sc.pendingCalls(); n != 0 {
		t.Fatalf("%d calls still pending", n)
	}
}

// TestZeroAllocsShmCheck pins a full Shm.Check round trip — submit, lead
// the completion ring, decode — at zero allocations on a warm tenant. The
// server shares the process, so its side of the round trip is pinned with
// it. scripts/check.sh runs this without -race.
func TestZeroAllocsShmCheck(t *testing.T) {
	if shm.RaceEnabled {
		t.Skip("allocation accounting is perturbed under the race detector")
	}
	sc := dialRealServer(t, server.Options{DefaultProfile: seccomp.DockerDefault()}, ShmOptions{})
	ctx := context.Background()
	read := testSID(t, "read")
	args := engine.Args{3, 0, 4096}
	for i := 0; i < 100; i++ {
		if _, err := sc.Check(ctx, "t", read, args); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(2000, func() {
		if _, err := sc.Check(ctx, "t", read, args); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("Shm.Check allocates %.2f allocs/op, want 0", avg)
	}
}

// TestZeroAllocsShmCheckBatch pins a full 64-call Shm.CheckBatch round trip
// the same way: request encoded in place into the slot, decoded into the
// session's call slice, checked, and the response coded in place both ways.
func TestZeroAllocsShmCheckBatch(t *testing.T) {
	if shm.RaceEnabled {
		t.Skip("allocation accounting is perturbed under the race detector")
	}
	sc := dialRealServer(t, server.Options{DefaultProfile: seccomp.DockerDefault()}, ShmOptions{})
	ctx := context.Background()
	calls := make([]engine.Call, 64)
	for i := range calls {
		calls[i] = engine.Call{SID: testSID(t, []string{"read", "write", "close", "init_module"}[i%4]), Args: engine.Args{3, 0, uint64(i)}}
	}
	var dst []engine.Decision
	var err error
	for i := 0; i < 100; i++ {
		if dst, err = sc.CheckBatch(ctx, "t", calls, dst); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(500, func() {
		if dst, err = sc.CheckBatch(ctx, "t", calls, dst); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("Shm.CheckBatch(64) allocates %.2f allocs/op, want 0", avg)
	}
	if len(dst) != len(calls) || !dst[0].Allowed || dst[3].Allowed {
		t.Fatalf("decisions: %+v", dst[:4])
	}
}
