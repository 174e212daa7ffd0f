package server_test

// Wire front-end tests: end-to-end over real TCP connections, the
// wire-vs-in-process differential suite (the binary protocol must be a
// transparent transport: decisions identical to calling the engine
// directly), and the 32-goroutine hot-swap hammer that scripts/check.sh
// runs under -race.

import (
	"bytes"
	"context"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"draco/internal/engine"
	"draco/internal/profilegen"
	"draco/internal/seccomp"
	"draco/internal/server"
	"draco/internal/server/client"
	"draco/internal/syscalls"
	"draco/internal/wire"
	"draco/internal/workloads"
)

// startWireServer starts a Server with a wire listener and returns it with
// the listener's address. It is torn down with the test.
func startWireServer(t testing.TB, opts server.Options) (*server.Server, string) {
	t.Helper()
	srv := server.New(opts)
	ws := srv.NewSessionHub(server.SessionOptions{}).NewWireServer()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ws.Serve(ln)
	t.Cleanup(func() { ws.Close() })
	return srv, ln.Addr().String()
}

// newWireServer starts a wire-serving Server and returns it with a pooled
// wire client. Both are torn down with the test.
func newWireServer(t testing.TB, opts server.Options, copts client.WireOptions) (*server.Server, *client.Wire) {
	t.Helper()
	srv, addr := startWireServer(t, opts)
	wc, err := client.DialWire(addr, copts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wc.Close() })
	return srv, wc
}

func sidOf(t testing.TB, name string) int {
	t.Helper()
	in, ok := syscalls.ByName(name)
	if !ok {
		t.Fatalf("unknown syscall %q", name)
	}
	return in.Num
}

func TestWireCheckAndBatch(t *testing.T) {
	srv, wc := newWireServer(t,
		server.Options{DefaultProfile: seccomp.DockerDefault()},
		client.WireOptions{})
	ctx := context.Background()

	read := sidOf(t, "read")
	d, err := wc.Check(ctx, "t1", read, engine.Args{3, 0, 4096})
	if err != nil {
		t.Fatal(err)
	}
	// First check is a miss (not cached); under the default bitmap exec
	// tier the ID-only read resolves with zero BPF instructions executed.
	if !d.Allowed || d.Cached || d.FilterInstructions != 0 {
		t.Fatalf("first check: %+v", d)
	}
	d, err = wc.Check(ctx, "t1", read, engine.Args{3, 0, 4096})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Allowed || !d.Cached || d.FilterInstructions != 0 {
		t.Fatalf("second check: %+v", d)
	}
	// Docker's default denies syscalls outside the whitelist.
	d, err = wc.Check(ctx, "t1", sidOf(t, "init_module"), engine.Args{})
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
	ds, err := wc.CheckBatch(ctx, "t1", calls, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 3 {
		t.Fatalf("batch returned %d decisions", len(ds))
	}
	if !ds[0].Allowed || !ds[1].Allowed || ds[2].Allowed {
		t.Fatalf("batch decisions: %+v", ds)
	}

	m := srv.Metrics()
	if got := m.WireChecks.Load(); got != 3 {
		t.Fatalf("WireChecks = %d, want 3", got)
	}
	if got := m.WireBatchCalls.Load(); got != 3 {
		t.Fatalf("WireBatchCalls = %d, want 3", got)
	}
	// Three sequential round trips: each drain pushed exactly one response.
	if got := m.WireFlushes.Load(); got != 3 {
		t.Fatalf("WireFlushes = %d, want 3", got)
	}
	if m.WireConnsTotal.Load() == 0 {
		t.Fatal("no wire connection counted")
	}

	// The wire series render on the /metrics page.
	text := metricsPage(srv)
	for _, series := range []string{
		"dracod_wire_checks_total 3",
		"dracod_wire_check_flushes_total 3",
		`dracod_wire_latency_ns{op="check",quantile="0.99"}`,
	} {
		if !strings.Contains(text, series) {
			t.Fatalf("metrics page missing %s:\n%s", series, text)
		}
	}
}

func TestWireProfileSwapAndStats(t *testing.T) {
	_, wc := newWireServer(t, server.Options{},
		client.WireOptions{})
	ctx := context.Background()

	// No default profile: unknown tenants are rejected with an error frame
	// and the connection stays usable.
	if _, err := wc.Check(ctx, "ghost", sidOf(t, "read"), engine.Args{}); err == nil {
		t.Fatal("check on unknown tenant succeeded")
	} else if _, ok := err.(*client.ServerError); !ok {
		t.Fatalf("want *client.ServerError, got %T: %v", err, err)
	}

	resp, err := wc.PutProfile(ctx, "web", "", profileJSON(t, seccomp.DockerDefault()))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Tenant != "web" || resp.Engine != server.DefaultEngine || !resp.Created || resp.Generation != 1 {
		t.Fatalf("profile response: %+v", resp)
	}

	read := sidOf(t, "read")
	for i := 0; i < 3; i++ {
		if _, err := wc.Check(ctx, "web", read, engine.Args{uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := wc.Stats(ctx, "web")
	if err != nil {
		t.Fatal(err)
	}
	if st.Tenant != "web" || st.Engine != server.DefaultEngine || st.Checks != 3 {
		t.Fatalf("stats: %+v", st)
	}

	// Hot swap naming the served engine; the tenant survives with a new
	// generation.
	resp, err = wc.PutProfile(ctx, "web", server.DefaultEngine, profileJSON(t, seccomp.GVisorDefault()))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Engine != server.DefaultEngine || resp.Created || resp.Generation != 2 {
		t.Fatalf("swap response: %+v", resp)
	}
	if _, err := wc.Check(ctx, "web", read, engine.Args{}); err != nil {
		t.Fatal(err)
	}

	// Naming any other engine gets an error frame and provisions nothing.
	if _, err := wc.PutProfile(ctx, "sw", "draco-sw", profileJSON(t, seccomp.DockerDefault())); err == nil {
		t.Fatal("profile frame naming draco-sw accepted")
	} else if _, ok := err.(*client.ServerError); !ok {
		t.Fatalf("want *client.ServerError, got %T: %v", err, err)
	}
	if _, err := wc.Stats(ctx, "sw"); err == nil {
		t.Fatal("rejected upload provisioned its tenant")
	}
}

// TestWireFrameErrorDropsConnection proves framing failures are terminal:
// garbage on the stream closes the connection and is counted, while other
// connections keep serving.
func TestWireFrameErrorDropsConnection(t *testing.T) {
	srv, addr := startWireServer(t, server.Options{DefaultProfile: seccomp.DockerDefault()})

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write(bytes.Repeat([]byte{0xFF}, wire.HeaderSize)); err != nil {
		t.Fatal(err)
	}
	// The server must close the stream on a framing error.
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(nc); err != nil {
		t.Fatalf("expected clean close, got %v", err)
	}
	if got := srv.Metrics().WireFrameErrors.Load(); got != 1 {
		t.Fatalf("WireFrameErrors = %d, want 1", got)
	}

	// A well-formed connection still works after the bad one died.
	wc, err := client.DialWire(addr, client.WireOptions{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	if _, err := wc.Check(context.Background(), "t", sidOf(t, "read"), engine.Args{}); err != nil {
		t.Fatal(err)
	}
}

// TestWireDifferentialAllWorkloads is the transport-transparency proof: on
// 100k-event traces of every workload, decisions served over the wire
// (batch frames, and a single-check prefix pipelined on one connection) are
// identical — including the cached flag — to an in-process engine with the
// same configuration.
func TestWireDifferentialAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("differential suite replays 1.5M events over TCP")
	}
	const events = 100_000
	const singles = 10_000
	genOpts := profilegen.Options{IncludeRuntime: true}

	_, addr := startWireServer(t, server.Options{})
	wc, err := client.DialWire(addr, client.WireOptions{Conns: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wc.Close() })

	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
			defer cancel()
			tr := w.Generate(events, 0xD12AC0)
			p := profilegen.Complete(w.Name, tr, genOpts)
			pj := profileJSON(t, p)

			// Batch-frame replay vs a fresh in-process reference engine
			// built exactly like the server builds tenant engines.
			if _, err := wc.PutProfile(ctx, w.Name, "", pj); err != nil {
				t.Fatal(err)
			}
			ref, err := engine.New("draco-concurrent", engine.Options{Profile: p})
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			calls := make([]engine.Call, 0, 512)
			var ds []engine.Decision
			for off := 0; off < len(tr); off += 512 {
				end := off + 512
				if end > len(tr) {
					end = len(tr)
				}
				calls = calls[:0]
				for _, ev := range tr[off:end] {
					calls = append(calls, engine.Call{SID: ev.SID, Args: ev.Args})
				}
				ds, err = wc.CheckBatch(ctx, w.Name, calls, ds)
				if err != nil {
					t.Fatal(err)
				}
				for i, c := range calls {
					want := ref.Check(c.SID, c.Args)
					if ds[i] != want {
						t.Fatalf("batch event %d (sid=%d): wire %+v, in-process %+v", off+i, c.SID, ds[i], want)
					}
				}
			}

			// Single-check frames pipelined on one connection: the whole
			// prefix is in flight at once, and per-connection program order
			// keeps the decision stream (cached flag included) exact.
			single := w.Name + "-single"
			if _, err := wc.PutProfile(ctx, single, "", pj); err != nil {
				t.Fatal(err)
			}
			ref2, err := engine.New("draco-concurrent", engine.Options{Profile: p})
			if err != nil {
				t.Fatal(err)
			}
			defer ref2.Close()
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			sent := make(chan error, 1)
			go func() {
				pw := wire.NewWriter(nc)
				var buf []byte
				for i, ev := range tr[:singles] {
					buf = wire.AppendCheckReq(buf[:0], single, engine.Call{SID: ev.SID, Args: ev.Args})
					if err := pw.SendBuffered(wire.TypeCheckReq, uint64(i), buf); err != nil {
						sent <- err
						return
					}
				}
				sent <- pw.Flush()
			}()
			pr := wire.NewReader(nc)
			for i, ev := range tr[:singles] {
				h, payload, err := pr.Next()
				if err != nil {
					t.Fatal(err)
				}
				if h.Type != wire.TypeCheckResp || h.ID != uint64(i) {
					t.Fatalf("single event %d: response %v id=%d (%q)", i, h.Type, h.ID, payload)
				}
				got, err := wire.DecodeCheckResp(payload)
				if err != nil {
					t.Fatal(err)
				}
				if want := ref2.Check(ev.SID, ev.Args); got != want {
					t.Fatalf("single event %d (sid=%d): wire %+v, in-process %+v", i, ev.SID, got, want)
				}
			}
			if err := <-sent; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWireHotSwapHammer is the -race workout: 32 goroutines hammer one
// wire connection pool with checks and batches while a writer hot-swaps
// the tenant's profile (alternating two profiles, so generation swaps race
// with in-flight checks). Every request must complete without a
// transport- or request-level error.
func TestWireHotSwapHammer(t *testing.T) {
	_, wc := newWireServer(t, server.Options{},
		client.WireOptions{Conns: 4})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	docker := profileJSON(t, seccomp.DockerDefault())
	gvisor := profileJSON(t, seccomp.GVisorDefault())
	if _, err := wc.PutProfile(ctx, "hammer", "draco-concurrent", docker); err != nil {
		t.Fatal(err)
	}

	const goroutines, perG = 32, 200
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
					ds, err = wc.CheckBatch(ctx, "hammer", batch, ds)
					if err != nil {
						errCh <- err
						return
					}
					continue
				}
				if _, err := wc.Check(ctx, "hammer", read, engine.Args{uint64(g), uint64(i)}); err != nil {
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
			if _, err := wc.PutProfile(ctx, "hammer", "", bodies[i%2]); err != nil {
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
