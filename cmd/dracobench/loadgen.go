package main

// Loadgen mode: the service-edge benchmark. Starts an in-process dracod
// with every front end — the HTTP JSON API, the binary wire protocol, and
// the shared-memory rings — and drives single-check traffic from every
// workload trace through each at equal client concurrency, reporting
// throughput and p50/p95/p99 request latency. One driver loop serves all
// of them: each edge is just a client.Transport. This is the measurement
// behind the transport story: with the in-process check path already
// allocation-free, the remaining hot-path cost is request framing and
// kernel crossings — the wire protocol removes most of the former, the
// rings remove the latter, and the client-side Batcher (the shm_fold
// edge) amortizes what is left per call.

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"draco/internal/bench"
	"draco/internal/engine"
	"draco/internal/profilegen"
	"draco/internal/seccomp"
	"draco/internal/server"
	"draco/internal/server/client"
	"draco/internal/shm"
	"draco/internal/stats"
	"draco/internal/trace"
)

// loadgenPathResult is one (workload, transport) drive repetition.
type loadgenPathResult struct {
	Ops       int
	Elapsed   time.Duration
	OpsPerSec float64
	P50NS     int64
	P95NS     int64
	P99NS     int64
}

// loadgenEdge is one way of reaching the server under test.
type loadgenEdge struct {
	name string
	tc   client.Transport
}

// loadgenMode drives the comparison and returns the common-schema result.
func loadgenMode(cc commonConfig, concurrency, wireConns int) (bench.ModeResult, error) {
	events := cc.eventsOr(20_000)
	if concurrency <= 0 {
		concurrency = 32
	}
	if wireConns <= 0 {
		wireConns = 4
	}
	const shards = 8
	runner := cc.runner(2)
	if cc.warmup < 0 {
		// warmTenant already warms the serving tables; a full untimed
		// drive per transport would only stretch the run.
		runner.Warmup = 0
	}

	srv := server.New(server.Options{Shards: shards, Routing: "syscall"})
	// One session hub behind both binary front ends: frame dispatch is
	// shared, the edges differ only in framing.
	hub := srv.NewSessionHub(server.SessionOptions{})

	// HTTP front end on a loopback listener.
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return bench.ModeResult{}, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(httpLn)
	defer hs.Close()

	// Wire front end next to it.
	wireLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return bench.ModeResult{}, err
	}
	ws := hub.NewWireServer()
	go ws.Serve(wireLn)
	defer ws.Close()

	// The HTTP client pool must not cap connection reuse below the worker
	// count, or throughput measures idle-connection churn.
	transport := &http.Transport{MaxIdleConns: concurrency * 2, MaxIdleConnsPerHost: concurrency * 2}
	defer transport.CloseIdleConnections()
	hc := client.New("http://"+httpLn.Addr().String(), &http.Client{Transport: transport})
	wc, err := client.DialWire(wireLn.Addr().String(), client.WireOptions{Conns: wireConns})
	if err != nil {
		return bench.ModeResult{}, err
	}
	defer wc.Close()

	edges := []loadgenEdge{
		{"http", &client.HTTPTransport{C: hc}},
		{"wire", wc},
	}

	// Shm front end: skip (not fail) where mmap is unavailable, so the
	// mode still runs on exotic platforms.
	shmState := "on"
	var shmc *client.Shm
	if shm.Supported() {
		dir, err := os.MkdirTemp("", "dracobench-shm-*")
		if err != nil {
			return bench.ModeResult{}, err
		}
		defer os.RemoveAll(dir)
		ss, err := hub.NewShmServer(dir)
		if err != nil {
			return bench.ModeResult{}, err
		}
		go ss.Serve()
		defer ss.Close()
		shmc, err = client.DialShm(dir, client.ShmOptions{})
		if err != nil {
			return bench.ModeResult{}, fmt.Errorf("loadgen: shm: %w", err)
		}
		defer shmc.Close()
		// The fold edge layers client-side aggregation on the same
		// connection: one flusher per tenant drains whatever queued behind
		// it into one batch frame.
		edges = append(edges, loadgenEdge{"shm", shmc},
			loadgenEdge{"shm_fold", client.NewBatcher(shmc, client.BatcherOptions{})})
		shmState = "on (doorbell " + shmc.RingStats().Doorbell.String() + ")"
	} else {
		shmState = "skipped (unsupported platform)"
	}

	ctx := context.Background()
	mode := bench.ModeResult{
		Mode: "loadgen",
		Config: bench.Config{
			Events: events, Reps: runner.Reps, Warmup: runner.Warmup,
			Seed: cc.seed, Workloads: cc.workloadNames(),
			Extra: map[string]string{
				"concurrency": fmt.Sprint(concurrency),
				"wire_conns":  fmt.Sprint(wireConns),
				"engine":      server.DefaultEngine,
				"shards":      fmt.Sprint(shards),
				"shm":         shmState,
			},
		},
	}

	fmt.Printf("loadgen: %d events/workload, %d client workers, %d wire conns, shm %s\n",
		events, concurrency, wireConns, shmState)
	header := fmt.Sprintf("%-16s", "workload")
	for _, e := range edges {
		header += fmt.Sprintf(" %12s", e.name+" ops/s")
	}
	fmt.Printf("%s %9s %9s\n", header, "wire/http", "shm/wire")

	type series struct{ ops, p50, p95, p99 []float64 }
	var logWireHTTP, logShmWire float64
	shmWorkloads := 0
	var prevStats client.RingStats
	for _, w := range cc.workloads {
		tr := w.Generate(events, cc.seed)
		p := profilegen.Complete(w.Name, tr, profilegen.Options{IncludeRuntime: true})
		var buf []byte
		{
			var b jsonBuffer
			if err := seccomp.WriteJSON(&b, p); err != nil {
				return bench.ModeResult{}, err
			}
			buf = b
		}
		if _, err := wc.PutProfile(ctx, w.Name, "", buf); err != nil {
			return bench.ModeResult{}, fmt.Errorf("loadgen: profile %s: %w", w.Name, err)
		}
		// Warm the tenant's VAT once via batch frames so every transport
		// measures steady-state edge cost, not first-touch filter runs.
		if err := warmTenant(ctx, wc, w.Name, tr); err != nil {
			return bench.ModeResult{}, err
		}

		sers := make([]series, len(edges))
		err := runner.Repeat(func(recorded bool) error {
			for i, e := range edges {
				res, err := driveEdge(ctx, e.tc, w.Name, tr, concurrency)
				if err != nil {
					return fmt.Errorf("loadgen: %s over %s: %w", w.Name, e.name, err)
				}
				if recorded {
					s := &sers[i]
					s.ops = append(s.ops, res.OpsPerSec)
					s.p50 = append(s.p50, float64(res.P50NS))
					s.p95 = append(s.p95, float64(res.P95NS))
					s.p99 = append(s.p99, float64(res.P99NS))
				}
			}
			return nil
		})
		if err != nil {
			return bench.ModeResult{}, err
		}

		medians := make(map[string]float64, len(edges))
		row := fmt.Sprintf("%-16s", w.Name)
		for i, e := range edges {
			s := sers[i]
			ops := bench.HigherIsBetter(w.Name, e.name+"/ops_per_sec", "ops/s", events, s.ops)
			mode.Metrics = append(mode.Metrics, ops,
				bench.LowerIsBetter(w.Name, e.name+"/p50_ns", "ns", events, s.p50),
				bench.LowerIsBetter(w.Name, e.name+"/p95_ns", "ns", events, s.p95),
				bench.LowerIsBetter(w.Name, e.name+"/p99_ns", "ns", events, s.p99))
			medians[e.name] = ops.Summary.Median
			row += fmt.Sprintf(" %12.0f", ops.Summary.Median)
		}
		ratioSeries := func(num, den series) []float64 {
			out := make([]float64, 0, len(num.ops))
			for i := range num.ops {
				if i < len(den.ops) && den.ops[i] > 0 {
					out = append(out, num.ops[i]/den.ops[i])
				}
			}
			return out
		}
		wireHTTP := 0.0
		if medians["http"] > 0 {
			wireHTTP = medians["wire"] / medians["http"]
			logWireHTTP += math.Log(wireHTTP)
			mode.Metrics = append(mode.Metrics,
				bench.Info(w.Name, "wire_vs_http_speedup", "x", ratioSeries(sers[1], sers[0])))
		}
		shmWire := 0.0
		if m, ok := medians["shm"]; ok && medians["wire"] > 0 {
			shmWire = m / medians["wire"]
			logShmWire += math.Log(shmWire)
			shmWorkloads++
			mode.Metrics = append(mode.Metrics,
				bench.Info(w.Name, "shm_vs_wire_speedup", "x", ratioSeries(sers[2], sers[1])))
		}
		// Transport internals of the shm connection: doorbell parks/wakes
		// this workload cost and the adaptive spin budget it converged to.
		if shmc != nil {
			st := shmc.RingStats()
			mode.Metrics = append(mode.Metrics,
				bench.Info(w.Name, "shm/reap_parks", "parks", []float64{float64(st.Parks - prevStats.Parks)}),
				bench.Info(w.Name, "shm/reap_wakes", "wakes", []float64{float64(st.Wakes - prevStats.Wakes)}),
				bench.Info(w.Name, "shm/spin_budget", "polls", []float64{float64(st.SpinBudget)}))
			prevStats = st
		}
		fmt.Printf("%s %8.1fx %8.1fx\n", row, wireHTTP, shmWire)
	}
	notes := fmt.Sprintf("geomean wire/http single-check speedup: %.1fx",
		math.Exp(logWireHTTP/float64(len(cc.workloads))))
	if shmWorkloads > 0 {
		notes += fmt.Sprintf("; geomean shm/wire single-check speedup: %.1fx",
			math.Exp(logShmWire/float64(shmWorkloads)))
	}
	mode.Notes = notes
	fmt.Printf("%s\n", mode.Notes)
	return mode, nil
}

// jsonBuffer is a minimal io.Writer over a byte slice (avoids importing
// bytes just for profile serialization).
type jsonBuffer []byte

func (b *jsonBuffer) Write(p []byte) (int, error) {
	*b = append(*b, p...)
	return len(p), nil
}

// warmTenant replays the trace once through wire batch frames.
func warmTenant(ctx context.Context, wc *client.Wire, tenant string, tr trace.Trace) error {
	const chunk = 512
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
		ds, err = wc.CheckBatch(ctx, tenant, calls, ds[:0])
		if err != nil {
			return err
		}
	}
	return nil
}

// drive fans the trace out over `concurrency` workers, each issuing its
// slice as sequential single-check requests through checkOne, and folds
// the per-request latencies into one distribution.
func drive(tr trace.Trace, concurrency int, checkOne func(ev trace.Event) error) (loadgenPathResult, error) {
	var wg sync.WaitGroup
	workerLats := make([][]time.Duration, concurrency)
	errs := make([]error, concurrency)
	per := (len(tr) + concurrency - 1) / concurrency
	start := time.Now()
	for g := 0; g < concurrency; g++ {
		lo := g * per
		hi := lo + per
		if lo >= len(tr) {
			break
		}
		if hi > len(tr) {
			hi = len(tr)
		}
		wg.Add(1)
		go func(g int, slice trace.Trace) {
			defer wg.Done()
			lats := make([]time.Duration, 0, len(slice))
			for _, ev := range slice {
				reqStart := time.Now()
				if err := checkOne(ev); err != nil {
					errs[g] = err
					return
				}
				lats = append(lats, time.Since(reqStart))
			}
			workerLats[g] = lats
		}(g, tr[lo:hi])
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return loadgenPathResult{}, err
		}
	}
	var all []time.Duration
	for _, lats := range workerLats {
		all = append(all, lats...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return loadgenPathResult{
		Ops:       len(all),
		Elapsed:   elapsed,
		OpsPerSec: float64(len(all)) / elapsed.Seconds(),
		P50NS:     int64(stats.QuantileSorted(all, 0.50)),
		P95NS:     int64(stats.QuantileSorted(all, 0.95)),
		P99NS:     int64(stats.QuantileSorted(all, 0.99)),
	}, nil
}

// driveEdge runs the common driver loop over any transport — the
// per-transport drive functions this replaces differed only in the type
// of the client they called.
func driveEdge(ctx context.Context, tc client.Transport, tenant string, tr trace.Trace, concurrency int) (loadgenPathResult, error) {
	return drive(tr, concurrency, func(ev trace.Event) error {
		d, err := tc.Check(ctx, tenant, ev.SID, ev.Args)
		if err != nil {
			return err
		}
		if !d.Allowed {
			return fmt.Errorf("sid %d denied under the trace's own profile", ev.SID)
		}
		return nil
	})
}
