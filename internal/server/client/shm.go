package client

// Shared-memory client: the co-located fast path. One connection = one
// control socket (unix stream in the server's shm directory) plus one
// mapped ring pair. Requests are encoded with the same zero-allocation
// wire payload codecs as the TCP client, but straight into submission-ring
// slot memory: a steady-state check is two ring operations and no kernel
// crossing on either side. The control plane (profile swaps, stats) stays
// on the socket; the doorbell is whatever the handshake picked for the
// platform — a shared futex word on Linux, the control-socket wake frame
// elsewhere.
//
// Concurrency: the submission ring is multi-producer (CAS slot claiming),
// so calling goroutines publish concurrently under a shared read-lock —
// the write-lock belongs to teardown, which must exclude all producers
// before unmapping. The completion ring has no goroutine of its own:
// whichever caller is waiting for an answer consumes it under the
// connection's reap role. A caller that finds the role free
// takes it before submitting and answers its own call without the
// in-flight table (roundTripOwn); the others register in the table and
// wait (awaitRing). The protocol is written up in DESIGN.md §12. Callers
// that hold many calls at once amortize the per-call ring traffic with
// CheckBatch.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"draco/internal/engine"
	"draco/internal/server"
	"draco/internal/shm"
	"draco/internal/wire"
)

// ShmOptions configures DialShm.
type ShmOptions struct {
	// DialTimeout bounds the socket connect (0 = 5s).
	DialTimeout time.Duration
	// SlotSize / SubmitSlots / CompleteSlots request a ring geometry
	// (each 0 = server default).
	SlotSize      int
	SubmitSlots   int
	CompleteSlots int
}

// RingStats is a snapshot of one connection's transport internals, for
// benchmarks and diagnostics.
type RingStats struct {
	// Doorbell is the negotiated wake mechanism.
	Doorbell shm.DoorbellKind
	// Parks / Wakes count doorbell parks and wakeups on the completion
	// ring, by whichever caller held the reap role at the time.
	Parks, Wakes uint64
	// SpinBudget is the connection's current adaptive empty-poll budget:
	// what a caller reaping the completion ring burns before it parks.
	SpinBudget int
}

// Shm is a shared-memory client for one dracod shm directory.
type Shm struct {
	nc  net.Conn
	w   *wire.Writer
	reg *shm.Region
	tab *callTable

	// submitMu is the producer/teardown exclusion: producers publish under
	// RLock (the ring itself is multi-producer), teardown takes Lock to
	// fence them off before unmapping.
	submitMu sync.RWMutex

	// wMu serializes control-socket writers (wire.Writer is not
	// goroutine-safe, and ring producers may send wake frames
	// concurrently with control-plane calls).
	wMu sync.Mutex

	subDoor  *shm.Doorbell // client rings it (server's submission consumer)
	compDoor *shm.Doorbell // client sleeps on it (completion consumer)
	spin     *shm.SpinController

	// reapMu is the reap role: its holder is the completion ring's single
	// consumer. Callers only ever TryLock it (see roundTripRing and
	// awaitRing); teardown Locks it, so the mapping outlives whoever is in
	// the ring loop.
	reapMu sync.Mutex
	// reaper is the completion-ring consume loop, run under reapMu.
	reaper shm.ConsumeLoop
	// own is the call of a caller that took the reap role before
	// submitting (roundTripOwn). It never enters tab: the reaper decodes
	// the completion for ownID straight into own and sets ownDone. Only
	// the role holder touches the three; ownID is 0 when nobody waits.
	own     wireCall
	ownID   uint64
	ownDone bool
	// ownIn reports ownDone, the role holder's leave condition; built
	// once so that waiting allocates nothing.
	ownIn func() bool
	// drained reports the completion ring empty: the leave condition of a
	// producer draining it because the submission ring is full (see submit
	// and submitOwn).
	drained func() bool
	// promote carries at most one token from a leader leaving the reap
	// role to one follower, which then tries for the role itself.
	promote chan struct{}

	stop      chan struct{}
	closeOnce sync.Once
	closed    atomic.Bool
}

// DialShm connects to the shm front end serving dir: it dials the control
// socket, requests a ring pair (advertising this build's doorbell
// capabilities), and maps the region file the server answers with.
func DialShm(dir string, opts ShmOptions) (*Shm, error) {
	if !shm.Supported() {
		return nil, shm.ErrUnsupported
	}
	timeout := opts.DialTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	sock := filepath.Join(dir, server.ShmSocketName)
	nc, err := net.DialTimeout("unix", sock, timeout)
	if err != nil {
		return nil, fmt.Errorf("shm: dialing %s: %w", sock, err)
	}
	s := &Shm{
		nc:      nc,
		w:       wire.NewWriter(nc),
		tab:     newCallTable(),
		promote: make(chan struct{}, 1),
		stop:    make(chan struct{}),
	}
	// Handshake runs synchronously before the read loops start: one
	// TypeRingReq out, one TypeRingResp (or error) back, read through the
	// reader the socket loop then keeps.
	var req [16]byte
	binary.LittleEndian.PutUint32(req[0:], uint32(opts.SlotSize))
	binary.LittleEndian.PutUint32(req[4:], uint32(opts.SubmitSlots))
	binary.LittleEndian.PutUint32(req[8:], uint32(opts.CompleteSlots))
	binary.LittleEndian.PutUint32(req[12:], uint32(shm.PlatformCaps()))
	id, call, _ := s.tab.register()
	if err := s.w.Send(wire.TypeRingReq, id, req[:]); err != nil {
		nc.Close()
		return nil, err
	}
	r := wire.NewReader(nc)
	h, p, err := r.Next()
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("shm: handshake: %w", err)
	}
	s.tab.drop(id, call)
	if h.Type == wire.TypeError {
		nc.Close()
		return nil, &ServerError{Msg: string(p)}
	}
	if h.Type != wire.TypeRingResp {
		nc.Close()
		return nil, fmt.Errorf("shm: handshake answered %v, want %v", h.Type, wire.TypeRingResp)
	}
	reg, err := shm.OpenFile(string(p))
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("shm: mapping %s: %w", p, err)
	}
	kind := reg.Layout().Doorbell
	s.reg = reg
	s.subDoor, err = shm.NewDoorbell(kind, reg.Submit, shm.DoorbellConfig{SocketRing: s.sendWake})
	if err == nil {
		s.compDoor, err = shm.NewDoorbell(kind, reg.Complete, shm.DoorbellConfig{})
	}
	if err != nil {
		reg.Close()
		nc.Close()
		return nil, err
	}
	s.spin = shm.NewSpinController()
	s.reaper = shm.ConsumeLoop{
		Ring: reg.Complete,
		Door: s.compDoor,
		Spin: s.spin,
		Stop: s.stop,
		Handle: func(f *shm.Frame) {
			if s.ownID != 0 && f.ID == s.ownID {
				s.own.fill(wire.Type(f.Type), f.Payload)
				s.ownDone = true
				return
			}
			s.tab.complete(wire.Type(f.Type), f.ID, f.Payload)
		},
	}
	s.ownIn = func() bool { return s.ownDone }
	s.drained = reg.Complete.Empty
	go s.readSocket(r)
	return s, nil
}

// Close tears the connection down; in-flight requests fail.
func (s *Shm) Close() error {
	s.fail(errors.New("shm: client closed"))
	return nil
}

// RingStats snapshots the transport internals (doorbell mode, park/wake
// counters, the adaptive spin budget of the completion-ring consumer).
func (s *Shm) RingStats() RingStats {
	return RingStats{
		Doorbell:   s.compDoor.Kind(),
		Parks:      s.spin.Parks(),
		Wakes:      s.spin.Wakes(),
		SpinBudget: s.spin.Budget(),
	}
}

// sendWake sends a doorbell frame on the control socket (the socket
// doorbell's Ring, and nothing else — ring producers must not share the
// writer with control-plane calls unlocked).
func (s *Shm) sendWake() {
	s.wMu.Lock()
	s.w.Send(wire.TypeWake, 0, nil)
	s.wMu.Unlock()
}

// fail poisons the table (completing every in-flight call with err),
// closes the socket, and invalidates the rings, unparking whichever caller
// is reaping so it can leave. The mapping is released only once this
// goroutine holds the reap role and the producer write-lock — unmapping
// under a live ring loop is a fault — so fail
// returns after the current leader is out and must not be called with the
// reap role held. Callers arriving later find closed set, and the table's
// terminal error already in place. Idempotent.
func (s *Shm) fail(err error) {
	s.closeOnce.Do(func() {
		s.tab.fail(err)
		s.closed.Store(true)
		s.nc.Close()
		close(s.stop)
		s.reg.Invalidate()
		s.subDoor.Close()
		s.compDoor.Close()
		s.reapMu.Lock()
		s.submitMu.Lock()
		s.reg.Close()
		s.submitMu.Unlock()
		s.reapMu.Unlock()
	})
}

// readSocket handles control-plane responses and socket doorbells.
func (s *Shm) readSocket(r *wire.Reader) {
	for {
		h, p, err := r.Next()
		if err != nil {
			s.fail(fmt.Errorf("shm: connection lost: %w", err))
			return
		}
		if h.Type == wire.TypeWake {
			s.compDoor.Notify()
			continue
		}
		s.tab.complete(h.Type, h.ID, p)
	}
}

// tryPublish claims a submission slot, fills it via enc (appending to the
// slot's own buffer — zero copy), publishes, and rings the server's
// doorbell if its consumer has parked. full reports a full ring, with
// nothing done. Multiple goroutines publish concurrently; the ring's CAS
// claim orders them.
func (s *Shm) tryPublish(t wire.Type, id uint64, enc func([]byte) []byte) (full bool, err error) {
	// The closed check shares the lock with the deferred unmap in fail,
	// so a producer never touches the mapping after it is gone.
	s.submitMu.RLock()
	defer s.submitMu.RUnlock()
	sub := s.reg.Submit
	if sub.Closed() {
		return false, shm.ErrRingClosed
	}
	pos, buf, ok := sub.TryClaim()
	if !ok {
		return true, nil
	}
	err = sub.Publish(pos, uint8(t), id, enc(buf))
	if err != nil {
		// Only ErrFrameTooBig reaches here, and the MPSC claim contract
		// is hole-free: this slot must still publish. A zero-length
		// error frame stands in; the server answers it with an
		// "unexpected frame" error for an id nobody is waiting on, and
		// the caller gets the local error.
		sub.Publish(pos, uint8(wire.TypeError), id, buf[:0])
	} else if sub.ConsumerParked() {
		s.subDoor.Ring()
	}
	return false, err
}

// submit publishes a request for a caller without the reap role.
//
// A full submission ring is backpressure, but it is not waited out blindly:
// the server stops consuming submissions when it cannot publish their
// completions, and completions are reaped only by callers — which may all
// be stuck right here, or have given up on their contexts without reaping.
// So a producer that finds the ring full drains the completion ring if
// nobody else is, then backs off.
func (s *Shm) submit(t wire.Type, id uint64, enc func([]byte) []byte) error {
	var bo shm.Backoff
	for {
		full, err := s.tryPublish(t, id, enc)
		if !full {
			return err
		}
		s.lead(context.Background(), s.drained)
		bo.Wait()
	}
}

// submitOwn is submit for the reap-role holder. On a full ring it drains
// the completion ring itself — lead would find the role taken, by itself —
// and reports a torn completion slot as reapErr.
func (s *Shm) submitOwn(t wire.Type, id uint64, enc func([]byte) []byte) (err, reapErr error) {
	var bo shm.Backoff
	for {
		full, err := s.tryPublish(t, id, enc)
		if !full {
			return err, nil
		}
		if reapErr := s.reaper.RunUntil(context.Background(), s.drained); reapErr != nil {
			return nil, reapErr
		}
		bo.Wait()
	}
}

// roundTripRing submits one request to the submission ring, waits for its
// completion or ctx, and hands the completed call to use, which must not
// keep it. A caller that finds the reap role free takes it before
// submitting and answers its own call without the table (roundTripOwn);
// the others register in the table, submit, and wait in awaitRing.
func (s *Shm) roundTripRing(ctx context.Context, t wire.Type, enc func([]byte) []byte, use func(*wireCall) error) error {
	if s.reapMu.TryLock() {
		return s.roundTripOwn(ctx, t, enc, use)
	}
	id, call, err := s.tab.register()
	if err != nil {
		return err
	}
	if err := s.submit(t, id, enc); err != nil {
		s.tab.drop(id, call)
		return err
	}
	if call, err = s.awaitRing(ctx, id, call); err != nil {
		return err
	}
	err = use(call)
	putWireCall(call)
	return err
}

// roundTripOwn is roundTripRing for a caller holding the reap role, which
// it releases before returning. The call takes an id but no table entry:
// it is submitted under the role, and the holder consumes the completion
// ring — completing every registered call it finds — until the reaper has
// decoded its own completion into s.own, ctx is cancelled, or the rings
// close. use reads the result before the role is released. On the way out
// ownID is cleared, so a completion that arrives after a cancel is dropped
// like a withdrawn call's.
func (s *Shm) roundTripOwn(ctx context.Context, t wire.Type, enc func([]byte) []byte, use func(*wireCall) error) error {
	var err, reapErr error
	if s.closed.Load() {
		// Teardown has had the role, and the mapping is gone.
		err = s.tab.failure()
	} else {
		id := s.tab.nextID.Add(1)
		s.own.reset()
		s.ownID, s.ownDone = id, false
		err, reapErr = s.submitOwn(t, id, enc)
		if err == nil && reapErr == nil {
			reapErr = s.reaper.RunUntil(ctx, s.ownIn)
			switch {
			case reapErr != nil:
			case s.ownDone:
				err = use(&s.own)
			case ctx.Err() != nil:
				err = ctx.Err()
			default:
				// The rings closed: fail set the table's error first.
				err = s.tab.failure()
			}
		}
		s.ownID = 0
	}
	s.reapMu.Unlock()
	s.handOff()
	if reapErr != nil {
		s.fail(fmt.Errorf("shm: completion ring: %w", reapErr))
		err = s.tab.failure()
	}
	return err
}

// lead takes the reap role if it is free and runs the completion ring's
// consume loop — completing every pending call it finds — until done
// reports true or ctx is cancelled; it reports false, having done nothing,
// when another caller holds the role. Every leader drops a promotion token
// on its way out (see awaitRing). Must not be called with submitMu held:
// a torn slot ends in fail, which takes it.
func (s *Shm) lead(ctx context.Context, done func() bool) bool {
	if !s.reapMu.TryLock() {
		return false
	}
	// The role is ours. After teardown has had it the mapping is gone;
	// closed is set before teardown asks for the role, so this check
	// under the role is what keeps a late leader off the rings.
	var err error
	if !s.closed.Load() {
		err = s.reaper.RunUntil(ctx, done)
	}
	s.reapMu.Unlock()
	s.handOff()
	if err != nil {
		s.fail(fmt.Errorf("shm: completion ring: %w", err))
	}
	return true
}

// handOff drops a promotion token on a leader's way out of the reap role
// (see awaitRing).
func (s *Shm) handOff() {
	select {
	case s.promote <- struct{}{}:
	default:
	}
}

// awaitRing waits for a registered call's completion, reaping the
// completion ring itself when nobody else is. The caller that gets the
// reap role (the leader) consumes completions for every pending call
// until its own is in or ctx is cancelled; the others (followers) block
// on their own completion, ctx, or a promotion. Every leader drops a
// promotion token on its way out, and every follower that takes one
// tries for the role, so while calls are pending somebody is reaping or
// about to; a token nobody needed is swallowed by the next follower at
// the cost of one failed TryLock. tab.fail completes every registered
// call, so teardown needs no case of its own here.
func (s *Shm) awaitRing(ctx context.Context, id uint64, call *wireCall) (*wireCall, error) {
	for !s.lead(ctx, func() bool { return len(call.done) != 0 }) {
		select {
		case <-call.done:
			return call, nil
		case <-s.promote:
		case <-ctx.Done():
			return s.tab.await(ctx, id, call)
		}
	}
	// Done, cancelled, or failed: await settles which without blocking.
	return s.tab.await(ctx, id, call)
}

// roundTripSocket runs a control-plane request over the socket.
func (s *Shm) roundTripSocket(ctx context.Context, t wire.Type, payload []byte) (*wireCall, error) {
	id, call, err := s.tab.register()
	if err != nil {
		return nil, err
	}
	s.wMu.Lock()
	err = s.w.Send(t, id, payload)
	s.wMu.Unlock()
	if err != nil {
		s.tab.drop(id, call)
		return nil, err
	}
	return s.tab.await(ctx, id, call)
}

// MaxBatchCalls reports how many calls fit in one submission-ring batch
// frame for this tenant: CheckBatch rejects a longer batch.
func (s *Shm) MaxBatchCalls(tenant string) int {
	n := (s.reg.Submit.PayloadCap() - 1 - len(tenant) - 4) / wire.CallBytes
	if n > wire.MaxBatch {
		n = wire.MaxBatch
	}
	return n
}

// Check validates one system call through the rings.
func (s *Shm) Check(ctx context.Context, tenant string, sid int, args engine.Args) (engine.Decision, error) {
	if len(tenant) > wire.MaxTenant {
		return engine.Decision{}, fmt.Errorf("shm: tenant name exceeds %d bytes", wire.MaxTenant)
	}
	var d engine.Decision
	err := s.roundTripRing(ctx, wire.TypeCheckReq, func(buf []byte) []byte {
		return wire.AppendCheckReq(buf, tenant, engine.Call{SID: sid, Args: args})
	}, func(c *wireCall) error {
		if err := c.respErr(wire.TypeCheckResp); err != nil {
			return err
		}
		d = c.decision
		return nil
	})
	return d, err
}

// CheckBatch validates a batch in one ring frame, reusing dst when it has
// capacity. The batch must fit a submission slot — at most
// MaxBatchCalls(tenant) calls.
func (s *Shm) CheckBatch(ctx context.Context, tenant string, calls []engine.Call, dst []engine.Decision) ([]engine.Decision, error) {
	if len(tenant) > wire.MaxTenant {
		return nil, fmt.Errorf("shm: tenant name exceeds %d bytes", wire.MaxTenant)
	}
	if max := s.MaxBatchCalls(tenant); len(calls) > max {
		return nil, fmt.Errorf("shm: batch of %d exceeds the slot capacity of %d calls", len(calls), max)
	}
	var out []engine.Decision
	err := s.roundTripRing(ctx, wire.TypeBatchReq, func(buf []byte) []byte {
		return wire.AppendBatchReq(buf, tenant, calls)
	}, func(c *wireCall) error {
		if err := c.respErr(wire.TypeBatchResp); err != nil {
			return err
		}
		var err error
		out, err = wire.DecodeBatchResp(c.raw, dst[:0])
		return err
	})
	return out, err
}

// PutProfile uploads a profile over the control socket (JSON bodies do not
// fit fixed-size slots, and swaps are off the hot path).
func (s *Shm) PutProfile(ctx context.Context, tenant, engineName string, profileJSON []byte) (server.ProfileResponse, error) {
	var out server.ProfileResponse
	if len(tenant) > wire.MaxTenant {
		return out, fmt.Errorf("shm: tenant name exceeds %d bytes", wire.MaxTenant)
	}
	err := controlRoundTrip(ctx, s.roundTripSocket, wire.TypeProfileReq, wire.TypeProfileResp,
		func(b []byte) []byte { return wire.AppendProfileReq(b, tenant, engineName, profileJSON) }, &out)
	return out, err
}

// Stats fetches a tenant's checker statistics over the control socket.
func (s *Shm) Stats(ctx context.Context, tenant string) (server.StatsResponse, error) {
	var out server.StatsResponse
	err := controlRoundTrip(ctx, s.roundTripSocket, wire.TypeStatsReq, wire.TypeStatsResp,
		func(b []byte) []byte { return wire.AppendStatsReq(b, tenant) }, &out)
	return out, err
}
