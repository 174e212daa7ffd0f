package main

// Loadgen mode: the service-edge benchmark. Starts an in-process dracod
// with both edges that carry checks — the binary wire protocol and the
// shared-memory rings — and drives single-check traffic from every
// workload trace through each at equal client concurrency, reporting
// throughput. One driver loop serves all of them: each edge is just a
// client.Transport. This is the measurement behind the transport story:
// with the in-process check path already allocation-free, the remaining
// hot-path cost is request framing and kernel crossings — the rings remove
// the latter, and the client-side Batcher (the shm_fold edge) amortizes
// what is left per call.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"draco/internal/engine"
	"draco/internal/profilegen"
	"draco/internal/seccomp"
	"draco/internal/server"
	"draco/internal/server/client"
	"draco/internal/shm"
	"draco/internal/stats"
	"draco/internal/trace"
	"draco/internal/workloads"
)

// loadgenConfig is what -loadgen takes from the command line.
type loadgenConfig struct {
	workloads   []*workloads.Workload
	events      int
	reps        int
	seed        int64
	concurrency int
	conns       int
}

// loadgenRep is one drive of a workload's trace over one edge.
type loadgenRep struct {
	Ops       int
	OpsPerSec float64
}

// loadgenResult is every rep of one workload over one edge.
type loadgenResult struct {
	Workload string
	Edge     string
	Reps     []loadgenRep
}

// loadgenEdge is one way of reaching the server under test.
type loadgenEdge struct {
	name string
	tc   client.Transport
}

// loadgenMode drives every workload over every edge, prints the
// per-workload table of median ops/s to out, and returns each rep.
func loadgenMode(out io.Writer, cfg loadgenConfig) ([]loadgenResult, error) {
	events := cfg.events
	if events <= 0 {
		events = 20_000
	}
	reps := cfg.reps
	if reps <= 0 {
		reps = 2
	}
	concurrency := cfg.concurrency
	if concurrency <= 0 {
		concurrency = 32
	}
	wireConns := cfg.conns
	if wireConns <= 0 {
		wireConns = 4
	}
	const shards = 8

	srv := server.New(server.Options{Shards: shards, Routing: "syscall"})
	// One session hub behind both binary front ends: frame dispatch is
	// shared, the edges differ only in framing.
	hub := srv.NewSessionHub(server.SessionOptions{})

	// Wire front end on a loopback listener.
	wireLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ws := hub.NewWireServer()
	go ws.Serve(wireLn)
	defer ws.Close()

	wc, err := client.DialWire(wireLn.Addr().String(), client.WireOptions{Conns: wireConns})
	if err != nil {
		return nil, err
	}
	defer wc.Close()

	edges := []loadgenEdge{{"wire", wc}}

	// Shm front end: skip (not fail) where mmap is unavailable, so the
	// mode still runs on exotic platforms.
	shmState := "skipped (unsupported platform)"
	if shm.Supported() {
		dir, err := os.MkdirTemp("", "dracobench-shm-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		ss, err := hub.NewShmServer(dir)
		if err != nil {
			return nil, err
		}
		go ss.Serve()
		defer ss.Close()
		shmc, err := client.DialShm(dir, client.ShmOptions{})
		if err != nil {
			return nil, fmt.Errorf("loadgen: shm: %w", err)
		}
		defer shmc.Close()
		// The fold edge layers client-side aggregation on the same
		// connection: one flusher per tenant drains whatever queued behind
		// it into one batch frame.
		edges = append(edges, loadgenEdge{"shm", shmc},
			loadgenEdge{"shm_fold", client.NewBatcher(shmc, client.BatcherOptions{})})
		shmState = "on (doorbell " + shmc.RingStats().Doorbell.String() + ")"
	}

	ctx := context.Background()
	fmt.Fprintf(out, "loadgen: %d events/workload, %d client workers, %d wire conns, shm %s\n",
		events, concurrency, wireConns, shmState)
	header := fmt.Sprintf("%-16s", "workload")
	for _, e := range edges {
		header += fmt.Sprintf(" %12s", e.name+" ops/s")
	}
	fmt.Fprintf(out, "%s %9s\n", header, "shm/wire")

	var results []loadgenResult
	var shmWires []float64
	for _, w := range cfg.workloads {
		tr := w.Generate(events, cfg.seed)
		p := profilegen.Complete(w.Name, tr, profilegen.Options{IncludeRuntime: true})
		var buf bytes.Buffer
		if err := seccomp.WriteJSON(&buf, p); err != nil {
			return nil, err
		}
		if _, err := wc.PutProfile(ctx, w.Name, "", buf.Bytes()); err != nil {
			return nil, fmt.Errorf("loadgen: profile %s: %w", w.Name, err)
		}
		// Warm the tenant's VAT once via batch frames so every transport
		// measures steady-state edge cost, not first-touch filter runs.
		if err := warmTenant(ctx, wc, w.Name, tr); err != nil {
			return nil, err
		}

		rows := make([]loadgenResult, len(edges))
		for i, e := range edges {
			rows[i] = loadgenResult{Workload: w.Name, Edge: e.name}
		}
		for r := 0; r < reps; r++ {
			for i, e := range edges {
				rep, err := driveEdge(ctx, e.tc, w.Name, tr, concurrency)
				if err != nil {
					return nil, fmt.Errorf("loadgen: %s over %s: %w", w.Name, e.name, err)
				}
				rows[i].Reps = append(rows[i].Reps, rep)
			}
		}
		results = append(results, rows...)

		medians := make(map[string]float64, len(edges))
		row := fmt.Sprintf("%-16s", w.Name)
		for _, res := range rows {
			ops := make([]float64, len(res.Reps))
			for i, rep := range res.Reps {
				ops[i] = rep.OpsPerSec
			}
			medians[res.Edge] = stats.Median(ops)
			row += fmt.Sprintf(" %12.0f", medians[res.Edge])
		}
		shmWire := 0.0
		if m, ok := medians["shm"]; ok && medians["wire"] > 0 {
			shmWire = m / medians["wire"]
			shmWires = append(shmWires, shmWire)
		}
		fmt.Fprintf(out, "%s %8.1fx\n", row, shmWire)
	}
	if len(shmWires) > 0 {
		fmt.Fprintf(out, "geomean shm/wire single-check speedup: %.1fx\n", stats.Geomean(shmWires))
	}
	return results, nil
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

// driveEdge fans the trace out over `concurrency` workers, each issuing
// its slice as sequential single-check requests through tc.
func driveEdge(ctx context.Context, tc client.Transport, tenant string, tr trace.Trace, concurrency int) (loadgenRep, error) {
	var wg sync.WaitGroup
	done := make([]int, concurrency)
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
			for _, ev := range slice {
				d, err := tc.Check(ctx, tenant, ev.SID, ev.Args)
				if err == nil && !d.Allowed {
					err = fmt.Errorf("sid %d denied under the trace's own profile", ev.SID)
				}
				if err != nil {
					errs[g] = err
					return
				}
				done[g]++
			}
		}(g, tr[lo:hi])
	}
	wg.Wait()
	elapsed := time.Since(start)
	ops := 0
	for g, err := range errs {
		if err != nil {
			return loadgenRep{}, err
		}
		ops += done[g]
	}
	return loadgenRep{Ops: ops, OpsPerSec: float64(ops) / elapsed.Seconds()}, nil
}
