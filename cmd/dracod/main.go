// Command dracod runs the Draco syscall-check service and doubles as its
// control client (dracoctl mode).
//
// Serving:
//
//	dracod serve -addr :8477 -shards 8 -default-profile docker
//
// Every tenant is checked by Draco's sharded concurrent checker
// (draco-concurrent) with the bitmap filter tier. The service listens on
// up to three fronts over one tenant set. Checks travel over the
// length-prefixed binary wire protocol (-wire, see internal/wire) with
// pipelined connections, and over shared-memory submission/completion
// rings for co-located clients (-shm <dir>, see internal/shm); both share
// one session layer. The HTTP JSON API (-addr) is the control plane:
// profiles, stats, tenants, metrics and, with -pprof, profiling.
//
// Client subcommands:
//
//	dracod check   -wire 127.0.0.1:8478 -tenant web -syscall read -args 3,0,4096
//	dracod replay  -wire 127.0.0.1:8478 -tenant web -trace trace.txt -batch-size 64
//	dracod replay  -shm /run/dracod -tenant web -trace trace.txt
//	dracod profile -server http://127.0.0.1:8477 -tenant web -file profile.json
//	dracod stats   -server ... -tenant web
//	dracod tenants -server ...
//	dracod metrics -server ...
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"draco/internal/concurrent"
	"draco/internal/engine"
	"draco/internal/seccomp"
	"draco/internal/server"
	"draco/internal/server/client"
	"draco/internal/stats"
	"draco/internal/syscalls"
	"draco/internal/trace"
	"draco/internal/wire"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dracod: ")
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "serve":
		err = runServe(args)
	case "check":
		err = runCheck(args)
	case "replay":
		err = runReplay(args)
	case "profile":
		err = runProfile(args)
	case "stats":
		err = runStats(args)
	case "tenants":
		err = runTenants(args)
	case "metrics":
		err = runMetrics(args)
	case "-h", "-help", "--help", "help":
		usage()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: dracod <command> [flags]

commands:
  serve    run the syscall-check service (wire protocol + shm rings for
           checks, HTTP JSON API for control)
  check    check one system call over the wire protocol
  replay   replay a trace file and report throughput + latency percentiles
           (over the wire protocol, or -shm dir the shared-memory rings)
  profile  upload a Docker-format JSON profile (hot swap)
  stats    print a tenant's checker statistics
  tenants  list provisioned tenants
  metrics  print the service metrics page

run 'dracod <command> -h' for the command's flags`)
}

func presetProfile(name string) (*seccomp.Profile, error) {
	switch name {
	case "docker":
		return seccomp.DockerDefault(), nil
	case "docker-masked":
		return seccomp.DockerDefaultMasked(), nil
	case "gvisor":
		return seccomp.GVisorDefault(), nil
	case "firecracker":
		return seccomp.Firecracker(), nil
	case "none", "":
		return nil, nil
	default:
		return nil, fmt.Errorf("unknown profile preset %q (docker, docker-masked, gvisor, firecracker, none)", name)
	}
}

func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8477", "HTTP listen address")
	wireAddr := fs.String("wire", ":8478", "wire-protocol listen address (empty = disabled)")
	shmDir := fs.String("shm", "", "serve the shared-memory transport from this directory (empty = disabled)")
	shards := fs.Int("shards", concurrent.DefaultShards, "VAT shards per tenant (power of two)")
	routing := fs.String("routing", "syscall", "shard routing key: syscall (exact sequential semantics) or args (spread hot syscalls)")
	preset := fs.String("default-profile", "docker", "auto-provision tenants with this preset (docker, docker-masked, gvisor, firecracker, none)")
	pprofOn := fs.Bool("pprof", false, "expose net/http/pprof profiling endpoints under /debug/pprof/")
	fs.Parse(args)

	if _, err := concurrent.ParseRouting(*routing); err != nil {
		return fmt.Errorf("-routing: %v", err)
	}
	def, err := presetProfile(*preset)
	if err != nil {
		return err
	}
	srv := server.New(server.Options{Shards: *shards, Routing: *routing, DefaultProfile: def})
	handler := srv.Handler()
	if *pprofOn {
		// Mount the profiler next to the API instead of importing
		// net/http/pprof for its DefaultServeMux side effect: profiling
		// stays opt-in, and the service handler keeps owning every other
		// path.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
		handler = mux
	}
	hs := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	defProfile := "none (tenants must upload profiles)"
	if def != nil {
		defProfile = def.Name
	}
	extra := ""
	if *pprofOn {
		extra = ", pprof on /debug/pprof/"
	}
	// One session hub — frame dispatch, tenant lookup, response routing —
	// serves both binary front ends; wire and shm differ only in how bytes
	// reach it.
	hub := srv.NewSessionHub(server.SessionOptions{})
	if *wireAddr != "" {
		ln, err := net.Listen("tcp", *wireAddr)
		if err != nil {
			return err
		}
		ws := hub.NewWireServer()
		defer ws.Close()
		go func() {
			if err := ws.Serve(ln); err != nil {
				log.Fatalf("wire: %v", err)
			}
		}()
		extra += ", wire on " + ln.Addr().String()
	}
	if *shmDir != "" {
		ss, err := hub.NewShmServer(*shmDir)
		if err != nil {
			return fmt.Errorf("shm: %v", err)
		}
		defer ss.Close()
		go func() {
			if err := ss.Serve(); err != nil {
				log.Fatalf("shm: %v", err)
			}
		}()
		extra += ", shm in " + *shmDir
	}
	log.Printf("listening on %s (engine=%s shards=%d routing=%s default-profile=%s%s)", *addr, server.DefaultEngine, *shards, *routing, defProfile, extra)
	return hs.ListenAndServe()
}

// defaultWireAddr is where check and replay reach serve's default -wire
// listener.
const defaultWireAddr = "127.0.0.1:8478"

// ctlFlags adds the flags every control-plane subcommand shares.
func ctlFlags(fs *flag.FlagSet) (srvURL *string, timeout *time.Duration) {
	srvURL = fs.String("server", "http://127.0.0.1:8477", "dracod base URL")
	timeout = fs.Duration("timeout", 30*time.Second, "request timeout")
	return
}

func dial(srvURL string, timeout time.Duration) (*client.Client, context.Context, context.CancelFunc) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	return client.New(srvURL, nil), ctx, cancel
}

func parseArgs(spec string) ([]uint64, error) {
	if spec == "" {
		return nil, nil
	}
	parts := strings.Split(spec, ",")
	out := make([]uint64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseUint(strings.TrimSpace(p), 0, 64)
		if err != nil {
			return nil, fmt.Errorf("arg %d: %v", i, err)
		}
		out[i] = v
	}
	return out, nil
}

func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func runCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	wireAddr := fs.String("wire", defaultWireAddr, "dracod wire-protocol address (host:port)")
	timeout := fs.Duration("timeout", 30*time.Second, "request timeout")
	tenant := fs.String("tenant", "default", "tenant id")
	name := fs.String("syscall", "", "syscall name (e.g. openat)")
	num := fs.Int("num", -1, "syscall number (alternative to -syscall)")
	argSpec := fs.String("args", "", "comma-separated argument values (decimal or 0x hex)")
	fs.Parse(args)

	vals, err := parseArgs(*argSpec)
	if err != nil {
		return err
	}
	var callArgs engine.Args
	if len(vals) > len(callArgs) {
		return fmt.Errorf("check: %d args exceed the x86-64 maximum of %d", len(vals), len(callArgs))
	}
	copy(callArgs[:], vals)
	sid := *num
	if *name != "" {
		in, ok := syscalls.ByName(*name)
		if !ok {
			return fmt.Errorf("check: unknown syscall %q", *name)
		}
		if sid >= 0 && sid != in.Num {
			return fmt.Errorf("check: syscall %q is %d, not %d", *name, in.Num, sid)
		}
		sid = in.Num
	} else if sid < 0 {
		return fmt.Errorf("check: -syscall or -num is required")
	}

	wc, err := client.DialWire(*wireAddr, client.WireOptions{Conns: 1, DialTimeout: *timeout})
	if err != nil {
		return err
	}
	defer wc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	d, err := wc.Check(ctx, *tenant, sid, callArgs)
	if err != nil {
		return err
	}
	fmt.Printf("allowed=%t cached=%t filterInstructions=%d action=%s\n",
		d.Allowed, d.Cached, d.FilterInstructions, d.Action)
	return nil
}

func runReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	timeout := fs.Duration("timeout", 30*time.Second, "request timeout")
	wireAddr := fs.String("wire", "", "replay over the binary wire protocol at this host:port (default "+defaultWireAddr+" unless -shm)")
	shmDir := fs.String("shm", "", "replay over the shared-memory transport in this directory")
	conns := fs.Int("conns", 2, "wire connection-pool size")
	tenant := fs.String("tenant", "default", "tenant id")
	traceFile := fs.String("trace", "", "trace file in the toolkit's text format (required)")
	batchSize := fs.Int("batch-size", 64, "calls per request (1 = single-check frames)")
	fs.Parse(args)
	if *traceFile == "" {
		return fmt.Errorf("replay: -trace is required")
	}
	if *batchSize < 1 || *batchSize > wire.MaxBatch {
		return fmt.Errorf("replay: -batch-size %d out of range [1,%d]", *batchSize, wire.MaxBatch)
	}
	f, err := os.Open(*traceFile)
	if err != nil {
		return err
	}
	tr, err := trace.Read(f)
	f.Close()
	if err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	// The Transport interface abstracts the edge: one implementation per
	// way of reaching the server, one replay loop over all of them.
	var tc client.Transport
	path := "wire"
	switch {
	case *shmDir != "" && *wireAddr != "":
		return fmt.Errorf("replay: -wire and -shm are mutually exclusive")
	case *shmDir != "":
		path = "shm"
		sc, err := client.DialShm(*shmDir, client.ShmOptions{})
		if err != nil {
			return err
		}
		if max := sc.MaxBatchCalls(*tenant); *batchSize > max {
			sc.Close()
			return fmt.Errorf("replay: -batch-size %d exceeds the shm slot capacity of %d calls", *batchSize, max)
		}
		tc = sc
	default:
		addr := *wireAddr
		if addr == "" {
			addr = defaultWireAddr
		}
		wc, err := client.DialWire(addr, client.WireOptions{Conns: *conns})
		if err != nil {
			return err
		}
		tc = wc
	}
	defer tc.Close()
	checkBatch := func(calls []engine.Call, dst []engine.Decision) ([]engine.Decision, error) {
		if len(calls) == 1 {
			d, err := tc.Check(ctx, *tenant, calls[0].SID, calls[0].Args)
			if err != nil {
				return dst, err
			}
			return append(dst, d), nil
		}
		return tc.CheckBatch(ctx, *tenant, calls, dst)
	}

	var allowed, denied, cached int
	calls := make([]engine.Call, 0, *batchSize)
	var ds []engine.Decision
	lats := make([]time.Duration, 0, (len(tr)+*batchSize-1) / *batchSize)
	start := time.Now()
	for off := 0; off < len(tr); off += *batchSize {
		end := off + *batchSize
		if end > len(tr) {
			end = len(tr)
		}
		calls = calls[:0]
		for _, ev := range tr[off:end] {
			calls = append(calls, engine.Call{SID: ev.SID, Args: ev.Args})
		}
		reqStart := time.Now()
		ds, err = checkBatch(calls, ds[:0])
		if err != nil {
			return err
		}
		lats = append(lats, time.Since(reqStart))
		for _, d := range ds {
			if d.Allowed {
				allowed++
			} else {
				denied++
			}
			if d.Cached {
				cached++
			}
		}
	}
	elapsed := time.Since(start)
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	fmt.Printf("replayed %d calls in %v over %s (%.0f checks/sec): %d allowed, %d denied, %d cached\n",
		len(tr), elapsed.Round(time.Millisecond), path, float64(len(tr))/elapsed.Seconds(), allowed, denied, cached)
	fmt.Printf("request latency (batch=%d, %d requests): p50=%v p95=%v p99=%v\n",
		*batchSize, len(lats),
		stats.QuantileSorted(lats, 0.50).Round(time.Microsecond),
		stats.QuantileSorted(lats, 0.95).Round(time.Microsecond),
		stats.QuantileSorted(lats, 0.99).Round(time.Microsecond))
	return nil
}

func runProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	srvURL, timeout := ctlFlags(fs)
	tenant := fs.String("tenant", "default", "tenant id")
	file := fs.String("file", "", "Docker-format JSON profile file (or -preset)")
	preset := fs.String("preset", "", "upload a built-in preset instead of a file (docker, docker-masked, gvisor, firecracker)")
	fs.Parse(args)

	var body io.Reader
	switch {
	case *file != "" && *preset != "":
		return fmt.Errorf("profile: -file and -preset are mutually exclusive")
	case *file != "":
		f, err := os.Open(*file)
		if err != nil {
			return err
		}
		defer f.Close()
		body = f
	case *preset != "":
		p, err := presetProfile(*preset)
		if err != nil {
			return err
		}
		if p == nil {
			return fmt.Errorf("profile: preset %q names no profile", *preset)
		}
		var buf bytes.Buffer
		if err := seccomp.WriteJSON(&buf, p); err != nil {
			return err
		}
		body = &buf
	default:
		return fmt.Errorf("profile: -file or -preset is required")
	}

	c, ctx, cancel := dial(*srvURL, *timeout)
	defer cancel()
	res, err := c.PutProfile(ctx, *tenant, body)
	if err != nil {
		return err
	}
	return printJSON(res)
}

func runStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	srvURL, timeout := ctlFlags(fs)
	tenant := fs.String("tenant", "default", "tenant id")
	fs.Parse(args)
	c, ctx, cancel := dial(*srvURL, *timeout)
	defer cancel()
	res, err := c.Stats(ctx, *tenant)
	if err != nil {
		return err
	}
	return printJSON(res)
}

func runTenants(args []string) error {
	fs := flag.NewFlagSet("tenants", flag.ExitOnError)
	srvURL, timeout := ctlFlags(fs)
	fs.Parse(args)
	c, ctx, cancel := dial(*srvURL, *timeout)
	defer cancel()
	names, err := c.Tenants(ctx)
	if err != nil {
		return err
	}
	for _, n := range names {
		fmt.Println(n)
	}
	return nil
}

func runMetrics(args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	srvURL, timeout := ctlFlags(fs)
	fs.Parse(args)
	c, ctx, cancel := dial(*srvURL, *timeout)
	defer cancel()
	text, err := c.Metrics(ctx)
	if err != nil {
		return err
	}
	fmt.Print(text)
	return nil
}
