package server_test

// Shared-memory front-end tests: end-to-end over a real mmap'd region and
// unix control socket, the shm-vs-in-process differential suite (the rings
// must be a transparent transport, for the real client's singles too), and the
// 16-goroutine producer/consumer hammer over one ring pair that
// scripts/check.sh runs under -race. Everything skips cleanly where mmap
// is unavailable.

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"draco/internal/engine"
	"draco/internal/profilegen"
	"draco/internal/seccomp"
	"draco/internal/server"
	"draco/internal/server/client"
	"draco/internal/shm"
	"draco/internal/wire"
	"draco/internal/workloads"
)

// newShmServer starts a Server with an shm front end in a test-owned
// directory and returns it with a connected shm client. Skips the test on
// platforms without mmap support.
func newShmServer(t testing.TB, opts server.Options, copts client.ShmOptions) (*server.Server, *client.Shm) {
	t.Helper()
	srv, ss := newShmServerOnly(t, opts)
	sc, err := client.DialShm(ss.Dir(), copts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sc.Close() })
	return srv, sc
}

// newShmServerOnly starts the shm front end without dialing it, for tests
// that speak the handshake themselves.
func newShmServerOnly(t testing.TB, opts server.Options) (*server.Server, *server.ShmServer) {
	t.Helper()
	if !shm.Supported() {
		t.Skip("shm transport unsupported on this platform")
	}
	srv := server.New(opts)
	ss, err := srv.NewSessionHub(server.SessionOptions{}).NewShmServer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	go ss.Serve()
	t.Cleanup(func() { ss.Close() })
	return srv, ss
}

// rawShm is a hand-driven shm connection advertising the socket doorbell
// only: TypeWake frames, completions reaped by hand. Tests that pipeline
// frames themselves, deliberately stop reaping, or leave holes in the
// submission ring drive the rings through it.
type rawShm struct {
	nc   net.Conn
	w    *wire.Writer
	r    *wire.Reader
	reg  *shm.Region
	path string
	// door, when set, wakes the server's consumer instead of a TypeWake
	// frame.
	door *shm.Doorbell
}

// sendRingReq dials the shm front end in dir and sends a ring request
// with payload p, returning the connection and the answering frame.
func sendRingReq(t testing.TB, dir string, p []byte) (net.Conn, *wire.Reader, wire.Header, []byte) {
	t.Helper()
	nc, err := net.Dial("unix", filepath.Join(dir, server.ShmSocketName))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	if err := wire.NewWriter(nc).Send(wire.TypeRingReq, 1, p); err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(nc)
	h, resp, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	return nc, r, h, resp
}

// ringReq encodes the 16-byte ring request: geometry (0 = server default)
// and the capabilities word.
func ringReq(submitSlots, completeSlots int, caps shm.Caps) []byte {
	var req [16]byte
	binary.LittleEndian.PutUint32(req[4:], uint32(submitSlots))
	binary.LittleEndian.PutUint32(req[8:], uint32(completeSlots))
	binary.LittleEndian.PutUint32(req[12:], uint32(caps))
	return req[:]
}

// dialRawShm connects to the shm front end in dir and requests a ring pair
// of the given geometry (0 = server default), advertising CapDoorbellSocket
// only. The connection is torn down with the test; goroutines still using
// the rings must be stopped (reg.Invalidate) first.
func dialRawShm(t testing.TB, dir string, submitSlots, completeSlots int) *rawShm {
	t.Helper()
	nc, r, h, p := sendRingReq(t, dir, ringReq(submitSlots, completeSlots, shm.CapDoorbellSocket))
	if h.Type != wire.TypeRingResp {
		t.Fatalf("handshake answered %v (%q)", h.Type, p)
	}
	path := string(p)
	reg, err := shm.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	return &rawShm{nc: nc, w: wire.NewWriter(nc), r: r, reg: reg, path: path}
}

// submit publishes one single-check frame and wakes the server's consumer:
// through door when set, else over the socket if it had parked. It blocks while the submission ring is
// full and fails once the ring is closed.
func (c *rawShm) submit(id uint64, tenant string, call engine.Call) error {
	pos, buf := c.reg.Submit.Claim()
	if buf == nil {
		return errors.New("submission ring closed")
	}
	if err := c.reg.Submit.Publish(pos, uint8(wire.TypeCheckReq), id, wire.AppendCheckReq(buf, tenant, call)); err != nil {
		return err
	}
	if c.door != nil {
		c.door.Ring()
		return nil
	}
	if c.reg.Submit.ConsumerParked() {
		return c.w.Send(wire.TypeWake, 0, nil)
	}
	return nil
}

// reap polls the completion ring for the next frame and hands it to use
// before releasing the slot (the payload aliases ring memory).
func (c *rawShm) reap(t testing.TB, use func(f *shm.Frame)) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var f shm.Frame
	var bo shm.Backoff
	for {
		ok, err := c.reg.Complete.Consume(&f)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no completion within 10s")
		}
		bo.Wait()
	}
	use(&f)
	c.reg.Complete.Release()
}

func TestShmCheckAndBatch(t *testing.T) {
	srv, sc := newShmServer(t,
		server.Options{DefaultProfile: seccomp.DockerDefault()},
		client.ShmOptions{})
	ctx := context.Background()

	read := sidOf(t, "read")
	d, err := sc.Check(ctx, "t1", read, engine.Args{3, 0, 4096})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Allowed || d.Cached || d.FilterInstructions != 0 {
		t.Fatalf("first check: %+v", d)
	}
	d, err = sc.Check(ctx, "t1", read, engine.Args{3, 0, 4096})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Allowed || !d.Cached {
		t.Fatalf("second check: %+v", d)
	}
	d, err = sc.Check(ctx, "t1", sidOf(t, "init_module"), engine.Args{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Allowed {
		t.Fatalf("init_module allowed: %+v", d)
	}

	calls := []engine.Call{
		{SID: read, Args: engine.Args{3, 0, 4096}},
		{SID: sidOf(t, "write"), Args: engine.Args{1, 0, 12}},
		{SID: sidOf(t, "init_module")},
	}
	ds, err := sc.CheckBatch(ctx, "t1", calls, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 3 || !ds[0].Allowed || !ds[1].Allowed || ds[2].Allowed {
		t.Fatalf("batch decisions: %+v", ds)
	}

	// The session layer counts checks transport-independently; the shm
	// series count the transport itself.
	m := srv.Metrics()
	if got := m.WireChecks.Load(); got != 3 {
		t.Fatalf("WireChecks = %d, want 3", got)
	}
	if got := m.WireBatchCalls.Load(); got != 3 {
		t.Fatalf("WireBatchCalls = %d, want 3", got)
	}
	if m.ShmConnsTotal.Load() != 1 || m.ShmRings.Load() != 1 {
		t.Fatalf("conns=%d rings=%d", m.ShmConnsTotal.Load(), m.ShmRings.Load())
	}
	// 3 singles + 1 batch moved through the submission ring.
	if got := m.ShmFrames.Load(); got != 4 {
		t.Fatalf("ShmFrames = %d, want 4", got)
	}
}

// TestSampledCheckLatency pins the latency histograms' sampling: a
// session times its first single-check frame and first batch frame, then
// one in 64 of each, while the check counters stay exact.
func TestSampledCheckLatency(t *testing.T) {
	srv, sc := newShmServer(t,
		server.Options{DefaultProfile: seccomp.DockerDefault()},
		client.ShmOptions{})
	ctx := context.Background()
	m := srv.Metrics()
	read := sidOf(t, "read")

	if _, err := sc.Check(ctx, "t", read, engine.Args{3, 0, 4096}); err != nil {
		t.Fatal(err)
	}
	if got := m.WireCheckLatency.Count(); got != 1 {
		t.Fatalf("after the first check: %d latency samples, want 1", got)
	}
	for i := 1; i < 1000; i++ {
		if _, err := sc.Check(ctx, "t", read, engine.Args{3, 0, uint64(i % 8)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.WireChecks.Load(); got != 1000 {
		t.Fatalf("WireChecks = %d, want 1000", got)
	}
	// Frames 0, 64, ..., 960.
	if got := m.WireCheckLatency.Count(); got != 16 {
		t.Fatalf("after 1000 checks: %d latency samples, want 16", got)
	}
	if m.WireCheckLatency.Quantile(0.5) == 0 {
		t.Fatal("sampled check latency has no median")
	}

	calls := []engine.Call{{SID: read, Args: engine.Args{3, 0, 4096}}, {SID: sidOf(t, "write"), Args: engine.Args{1, 0, 12}}}
	var ds []engine.Decision
	var err error
	for i := 0; i < 65; i++ {
		if ds, err = sc.CheckBatch(ctx, "t", calls, ds); err != nil {
			t.Fatal(err)
		}
		if i == 0 && m.WireBatchLatency.Count() != 1 {
			t.Fatalf("after the first batch: %d latency samples, want 1", m.WireBatchLatency.Count())
		}
	}
	if got := m.WireBatchCalls.Load(); got != 130 {
		t.Fatalf("WireBatchCalls = %d, want 130", got)
	}
	if got := m.WireBatchLatency.Count(); got != 2 {
		t.Fatalf("after 65 batches: %d latency samples, want 2", got)
	}
	if got := m.WireCheckLatency.Count(); got != 16 {
		t.Fatalf("batches moved the single-check samples to %d", got)
	}
}

func TestShmProfileSwapAndStats(t *testing.T) {
	_, sc := newShmServer(t, server.Options{},
		client.ShmOptions{})
	ctx := context.Background()

	// Unknown tenant: the error frame comes back over the completion ring
	// and the connection stays usable.
	if _, err := sc.Check(ctx, "ghost", sidOf(t, "read"), engine.Args{}); err == nil {
		t.Fatal("check on unknown tenant succeeded")
	} else if _, ok := err.(*client.ServerError); !ok {
		t.Fatalf("want *client.ServerError, got %T: %v", err, err)
	}

	resp, err := sc.PutProfile(ctx, "web", "", profileJSON(t, seccomp.DockerDefault()))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Tenant != "web" || resp.Engine != server.DefaultEngine || !resp.Created || resp.Generation != 1 {
		t.Fatalf("profile response: %+v", resp)
	}

	read := sidOf(t, "read")
	for i := 0; i < 3; i++ {
		if _, err := sc.Check(ctx, "web", read, engine.Args{uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := sc.Stats(ctx, "web")
	if err != nil {
		t.Fatal(err)
	}
	if st.Tenant != "web" || st.Engine != server.DefaultEngine || st.Checks != 3 {
		t.Fatalf("stats: %+v", st)
	}

	resp, err = sc.PutProfile(ctx, "web", server.DefaultEngine, profileJSON(t, seccomp.GVisorDefault()))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Engine != server.DefaultEngine || resp.Created || resp.Generation != 2 {
		t.Fatalf("swap response: %+v", resp)
	}
	if _, err := sc.Check(ctx, "web", read, engine.Args{}); err != nil {
		t.Fatal(err)
	}

	// Naming any other engine gets an error frame and provisions nothing.
	if _, err := sc.PutProfile(ctx, "sw", "draco-sw", profileJSON(t, seccomp.DockerDefault())); err == nil {
		t.Fatal("profile frame naming draco-sw accepted")
	} else if _, ok := err.(*client.ServerError); !ok {
		t.Fatalf("want *client.ServerError, got %T: %v", err, err)
	}
	if _, err := sc.Stats(ctx, "sw"); err == nil {
		t.Fatal("rejected upload provisioned its tenant")
	}
}

// TestShmCustomGeometryAndLimits exercises a non-default ring layout, the
// batch size guard against the smaller slots, and the ring request's one
// accepted size.
func TestShmCustomGeometryAndLimits(t *testing.T) {
	_, ss := newShmServerOnly(t, server.Options{DefaultProfile: seccomp.DockerDefault()})
	sc, err := client.DialShm(ss.Dir(), client.ShmOptions{SlotSize: 512, SubmitSlots: 8, CompleteSlots: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	ctx := context.Background()

	max := sc.MaxBatchCalls("t")
	if max <= 0 || max >= 512/8 {
		t.Fatalf("MaxBatchCalls = %d for 512-byte slots", max)
	}
	calls := make([]engine.Call, max)
	read := sidOf(t, "read")
	for i := range calls {
		calls[i] = engine.Call{SID: read, Args: engine.Args{uint64(i)}}
	}
	ds, err := sc.CheckBatch(ctx, "t", calls, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != max {
		t.Fatalf("got %d decisions, want %d", len(ds), max)
	}
	// One call past the slot capacity must be rejected client-side.
	if _, err := sc.CheckBatch(ctx, "t", append(calls, engine.Call{SID: read}), nil); err == nil {
		t.Fatal("oversized batch accepted")
	}
	// More frames than ring slots: wrap-around works.
	for i := 0; i < 64; i++ {
		if _, err := sc.Check(ctx, "t", read, engine.Args{uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Ring requests of any size but 16 bytes are answered with an error
	// frame: 0 and 12 bytes were the retired default and geometry-only
	// shapes.
	for _, n := range []int{0, 12} {
		if _, _, h, p := sendRingReq(t, ss.Dir(), make([]byte, n)); h.Type != wire.TypeError {
			t.Fatalf("%d-byte ring request answered %v (%q), want an error frame", n, h.Type, p)
		}
	}
}

// TestShmMetricsPage proves the shm series render on /metrics.
func TestShmMetricsPage(t *testing.T) {
	srv, sc := newShmServer(t,
		server.Options{DefaultProfile: seccomp.DockerDefault()},
		client.ShmOptions{})
	if _, err := sc.Check(context.Background(), "t", sidOf(t, "read"), engine.Args{}); err != nil {
		t.Fatal(err)
	}
	text := metricsPage(srv)
	for _, series := range []string{
		"dracod_shm_conns_active 1",
		"dracod_shm_conns_total 1",
		"dracod_shm_rings_total 1",
		"dracod_shm_frames_total 1",
		"dracod_shm_wake_total ",
		"dracod_shm_park_total ",
		"dracod_shm_spin_budget{ring=\"1\"} ",
		"dracod_shm_doorbell_conns{mode=",
	} {
		if !strings.Contains(text, series) {
			t.Fatalf("metrics page missing %q:\n%s", series, text)
		}
	}
}

// TestShmDifferentialAllWorkloads is the transport-transparency proof for
// the rings: on 100k-event traces of every workload, decisions served over
// shared memory — batch frames, singles pipelined through one ring pair,
// and singles through the real client's Check — are identical, cached
// flag included, to an in-process engine with the same configuration.
func TestShmDifferentialAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("differential suite replays 1.5M events through the rings")
	}
	const events = 100_000
	const singles = 10_000
	genOpts := profilegen.Options{IncludeRuntime: true}

	_, ss := newShmServerOnly(t, server.Options{})
	sc, err := client.DialShm(ss.Dir(), client.ShmOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sc.Close() })
	raw := dialRawShm(t, ss.Dir(), 0, 0)

	newRef := func(t *testing.T, p *seccomp.Profile) engine.Engine {
		t.Helper()
		ref, err := engine.New("draco-concurrent", engine.Options{Profile: p})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ref.Close() })
		return ref
	}

	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
			defer cancel()
			tr := w.Generate(events, 0xD12AC0)
			p := profilegen.Complete(w.Name, tr, genOpts)
			pj := profileJSON(t, p)

			// Batch-frame replay vs a fresh in-process reference engine.
			if _, err := sc.PutProfile(ctx, w.Name, "", pj); err != nil {
				t.Fatal(err)
			}
			ref := newRef(t, p)
			chunk := sc.MaxBatchCalls(w.Name)
			calls := make([]engine.Call, 0, chunk)
			var ds []engine.Decision
			for off := 0; off < len(tr); off += chunk {
				end := off + chunk
				if end > len(tr) {
					end = len(tr)
				}
				calls = calls[:0]
				for _, ev := range tr[off:end] {
					calls = append(calls, engine.Call{SID: ev.SID, Args: ev.Args})
				}
				var err error
				ds, err = sc.CheckBatch(ctx, w.Name, calls, ds)
				if err != nil {
					t.Fatal(err)
				}
				for i, c := range calls {
					want := ref.Check(c.SID, c.Args)
					if ds[i] != want {
						t.Fatalf("batch event %d (sid=%d): shm %+v, in-process %+v", off+i, c.SID, ds[i], want)
					}
				}
			}

			// Single-check frames pipelined through one ring pair: the
			// producer keeps the submission ring full while this goroutine
			// reaps, and per-connection program order keeps the decision
			// stream (cached flag included) exact.
			single := w.Name + "-single"
			if _, err := sc.PutProfile(ctx, single, "", pj); err != nil {
				t.Fatal(err)
			}
			ref2 := newRef(t, p)
			sent := make(chan error, 1)
			go func() {
				for i, ev := range tr[:singles] {
					if err := raw.submit(uint64(i), single, engine.Call{SID: ev.SID, Args: ev.Args}); err != nil {
						sent <- err
						return
					}
				}
				sent <- nil
			}()
			// A failing reap must not leave the producer spinning on rings
			// the test's cleanup is about to unmap.
			defer func() {
				if t.Failed() {
					raw.reg.Invalidate()
					<-sent
				}
			}()
			for i, ev := range tr[:singles] {
				raw.reap(t, func(f *shm.Frame) {
					if wire.Type(f.Type) != wire.TypeCheckResp || f.ID != uint64(i) {
						t.Fatalf("single event %d: completion %v id=%d (%q)", i, wire.Type(f.Type), f.ID, f.Payload)
					}
					got, err := wire.DecodeCheckResp(f.Payload)
					if err != nil {
						t.Fatal(err)
					}
					if want := ref2.Check(ev.SID, ev.Args); got != want {
						t.Fatalf("single event %d (sid=%d): shm %+v, in-process %+v", i, ev.SID, got, want)
					}
				})
			}
			if err := <-sent; err != nil {
				t.Fatal(err)
			}

			// The same prefix through the real client's Check: a sequential
			// caller always finds the reap role free, so every call is
			// answered outside the in-flight table (roundTripOwn), and
			// decisions — cached flag included — must still match exactly.
			direct := w.Name + "-client"
			if _, err := sc.PutProfile(ctx, direct, "", pj); err != nil {
				t.Fatal(err)
			}
			ref3 := newRef(t, p)
			for i, ev := range tr[:singles] {
				got, err := sc.Check(ctx, direct, ev.SID, ev.Args)
				if err != nil {
					t.Fatal(err)
				}
				if want := ref3.Check(ev.SID, ev.Args); got != want {
					t.Fatalf("client event %d (sid=%d): shm %+v, in-process %+v", i, ev.SID, got, want)
				}
			}
		})
	}
}

// TestShmHotSwapHammer is the -race workout for the ring pair: 16
// goroutines hammer one shm connection — single checks, which contend for
// the reap role, and batches on every 8th call, all funneling into the
// single submission ring —
// while a writer hot-swaps the tenant's profile over the control socket
// (alternating two profiles, so generation swaps race with ring traffic).
// Every request must complete without a transport- or request-level
// error.
func TestShmHotSwapHammer(t *testing.T) {
	_, sc := newShmServer(t, server.Options{},
		client.ShmOptions{})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	docker := profileJSON(t, seccomp.DockerDefault())
	gvisor := profileJSON(t, seccomp.GVisorDefault())
	if _, err := sc.PutProfile(ctx, "hammer", "draco-concurrent", docker); err != nil {
		t.Fatal(err)
	}

	const goroutines, perG = 16, 200
	read := sidOf(t, "read")
	batch := []engine.Call{{SID: read, Args: engine.Args{3}}, {SID: sidOf(t, "close"), Args: engine.Args{3}}}
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines+1)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var ds []engine.Decision
			for i := 0; i < perG; i++ {
				if i%8 == 7 {
					var err error
					ds, err = sc.CheckBatch(ctx, "hammer", batch, ds)
					if err != nil {
						errCh <- err
						return
					}
					continue
				}
				if _, err := sc.Check(ctx, "hammer", read, engine.Args{uint64(g), uint64(i)}); err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		bodies := [][]byte{docker, gvisor}
		for i := 0; i < 40; i++ {
			if _, err := sc.PutProfile(ctx, "hammer", "", bodies[i%2]); err != nil {
				errCh <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestShmDoorbellNegotiation proves both doorbells carry checks: the real
// client gets the platform's pick ("auto"), a peer advertising the socket
// doorbell only gets it and round-trips over TypeWake frames both ways,
// and a peer advertising the futex gets it and wakes the server through
// the shared word.
func TestShmDoorbellNegotiation(t *testing.T) {
	_, ss := newShmServerOnly(t, server.Options{DefaultProfile: seccomp.DockerDefault()})
	read := sidOf(t, "read")

	t.Run("auto", func(t *testing.T) {
		sc, err := client.DialShm(ss.Dir(), client.ShmOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		if got, want := sc.RingStats().Doorbell, shm.PickDoorbell(shm.PlatformCaps(), shm.PlatformCaps()); got != want {
			t.Fatalf("negotiated %v, want %v", got, want)
		}
		ctx := context.Background()
		for i := 0; i < 300; i++ {
			if _, err := sc.Check(ctx, "t", read, engine.Args{uint64(i)}); err != nil {
				t.Fatal(err)
			}
			if i%50 == 49 {
				// Let both sides park so the real doorbell (not just the
				// spin path) carries some of the wakeups.
				time.Sleep(2 * time.Millisecond)
			}
		}
	})

	t.Run("socket", func(t *testing.T) {
		raw := dialRawShm(t, ss.Dir(), 0, 0)
		if got := raw.reg.Layout().Doorbell; got != shm.DoorbellSocket {
			t.Fatalf("socket-only peer negotiated %v", got)
		}
		for i := uint64(1); i <= 3; i++ {
			// The server's consumer parks first, so the submit below has
			// to wake it with a TypeWake frame.
			waitParked(t, raw.reg.Submit)
			// Park this side's completion consumer: the answer must come
			// with a TypeWake frame on the socket.
			raw.reg.Complete.SetParked(true)
			if err := raw.submit(i, "t", engine.Call{SID: read, Args: engine.Args{3}}); err != nil {
				t.Fatal(err)
			}
			raw.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
			if h, p, err := raw.r.Next(); err != nil || h.Type != wire.TypeWake {
				t.Fatalf("completion wake: %v frame (%q), err %v", h.Type, p, err)
			}
			raw.reg.Complete.SetParked(false)
			raw.reap(t, func(f *shm.Frame) {
				if f.ID != i || wire.Type(f.Type) != wire.TypeCheckResp {
					t.Fatalf("completion %v id=%d, want check response id=%d", wire.Type(f.Type), f.ID, i)
				}
			})
		}
	})

	t.Run("futex", func(t *testing.T) {
		if !shm.PlatformCaps().Has(shm.CapDoorbellFutex) {
			t.Skip("platform lacks the futex doorbell")
		}
		_, _, h, p := sendRingReq(t, ss.Dir(), ringReq(0, 0, shm.CapDoorbellSocket|shm.CapDoorbellFutex))
		if h.Type != wire.TypeRingResp {
			t.Fatalf("handshake answered %v (%q)", h.Type, p)
		}
		reg, err := shm.OpenFile(string(p))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { reg.Close() })
		if got := reg.Layout().Doorbell; got != shm.DoorbellFutex {
			t.Fatalf("futex-capable peer negotiated %v", got)
		}
		door, err := shm.NewDoorbell(shm.DoorbellFutex, reg.Submit, shm.DoorbellConfig{})
		if err != nil {
			t.Fatal(err)
		}
		raw := &rawShm{reg: reg, door: door}
		for i := uint64(1); i <= 3; i++ {
			// The parked server consumer is woken through the shared word
			// alone: no frame goes over the socket.
			waitParked(t, reg.Submit)
			if err := raw.submit(i, "t", engine.Call{SID: read, Args: engine.Args{3}}); err != nil {
				t.Fatal(err)
			}
			raw.reap(t, func(f *shm.Frame) {
				if f.ID != i || wire.Type(f.Type) != wire.TypeCheckResp {
					t.Fatalf("completion %v id=%d, want check response id=%d", wire.Type(f.Type), f.ID, i)
				}
			})
		}
	})
}

// waitParked waits for the consumer of r to park on its doorbell.
func waitParked(t *testing.T, r *shm.Ring) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !r.ConsumerParked() {
		if time.Now().After(deadline) {
			t.Fatal("consumer never parked")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShmCloseRacesHandshake closes the front end while ring requests are
// in flight. A handshake that loses the race must release its region: no
// region file stays on disk and no ring stays on the metrics page.
func TestShmCloseRacesHandshake(t *testing.T) {
	if !shm.Supported() {
		t.Skip("shm transport unsupported on this platform")
	}
	srv := server.New(server.Options{})
	hub := srv.NewSessionHub(server.SessionOptions{})
	const rounds = 40
	for i := 0; i < rounds; i++ {
		dir := t.TempDir()
		ss, err := hub.NewShmServer(dir)
		if err != nil {
			t.Fatal(err)
		}
		go ss.Serve()
		nc, err := net.Dial("unix", filepath.Join(dir, server.ShmSocketName))
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.NewWriter(nc).Send(wire.TypeRingReq, 1, ringReq(0, 0, shm.PlatformCaps())); err != nil {
			t.Fatal(err)
		}
		ss.Close()
		nc.Close()

		deadline := time.Now().Add(2 * time.Second)
		for {
			rings, _ := filepath.Glob(filepath.Join(dir, "ring-*.shm"))
			live := strings.Contains(metricsPage(srv), "dracod_shm_spin_budget{")
			if len(rings) == 0 && !live {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d: 2s after Close, region files %v, live ring gauge %v", i, rings, live)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}
