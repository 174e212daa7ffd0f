package server_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"draco/internal/profilegen"
	"draco/internal/seccomp"
	"draco/internal/server"
	"draco/internal/server/client"
	"draco/internal/syscalls"
	"draco/internal/workloads"
)

func newTestServer(t testing.TB, opts server.Options) (*httptest.Server, *client.Client) {
	t.Helper()
	ts := httptest.NewServer(server.New(opts).Handler())
	t.Cleanup(ts.Close)
	return ts, client.New(ts.URL, ts.Client())
}

func profileJSON(t testing.TB, p *seccomp.Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := seccomp.WriteJSON(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCheckEndpoint(t *testing.T) {
	_, c := newTestServer(t, server.Options{Shards: 4, DefaultProfile: seccomp.DockerDefault()})
	ctx := context.Background()

	// First check: a miss (not cached) resolved by the filter chain — under
	// the default bitmap exec tier an ID-only syscall like read resolves
	// through the constant-action bitmap, so zero BPF instructions execute
	// even on the miss. Second: served from the cache.
	res, err := c.Check(ctx, server.CheckRequest{Tenant: "t1", Syscall: "read", Args: []uint64{3, 0, 4096}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Allowed || res.Cached || res.FilterInstructions != 0 {
		t.Fatalf("first check: %+v", res)
	}
	res, err = c.Check(ctx, server.CheckRequest{Tenant: "t1", Syscall: "read", Args: []uint64{3, 0, 4096}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Allowed || !res.Cached || res.FilterInstructions != 0 {
		t.Fatalf("second check: %+v", res)
	}

	// Docker's default denies unshare-style syscalls not in the whitelist.
	res, err = c.Check(ctx, server.CheckRequest{Tenant: "t1", Syscall: "init_module"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Allowed {
		t.Fatalf("init_module allowed under docker-default: %+v", res)
	}

	// By number works too.
	read := syscalls.MustByName("read").Num
	res, err = c.Check(ctx, server.CheckRequest{Tenant: "t1", Num: &read, Args: []uint64{3, 0, 4096}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Allowed {
		t.Fatalf("check by number: %+v", res)
	}
}

func TestCheckRequestValidation(t *testing.T) {
	ts, c := newTestServer(t, server.Options{DefaultProfile: seccomp.DockerDefault()})
	ctx := context.Background()

	cases := []server.CheckRequest{
		{Tenant: "t", Syscall: "no_such_syscall"},
		{Tenant: "t"},                // neither name nor number
		{Tenant: "t", Num: intp(-1)}, // negative number
		{Tenant: "t", Num: intp(syscalls.MaxNum() + 100)},       // out-of-range number
		{Tenant: "t", Syscall: "read", Num: intp(999)},          // name/number mismatch
		{Tenant: "t", Syscall: "read", Args: make([]uint64, 7)}, // too many args
		{Syscall: "read"}, // missing tenant
	}
	for i, req := range cases {
		if _, err := c.Check(ctx, req); err == nil {
			t.Errorf("case %d (%+v): expected error", i, req)
		}
	}

	// Malformed JSON body → 400.
	resp, err := http.Post(ts.URL+"/v1/check", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: HTTP %d", resp.StatusCode)
	}
}

func intp(v int) *int { return &v }

func TestUnknownTenantWithoutDefault(t *testing.T) {
	_, c := newTestServer(t, server.Options{}) // no default profile
	ctx := context.Background()
	if _, err := c.Check(ctx, server.CheckRequest{Tenant: "ghost", Syscall: "read"}); err == nil {
		t.Fatal("check on unknown tenant succeeded without a default profile")
	}
	if _, err := c.Stats(ctx, "ghost"); err == nil {
		t.Fatal("stats on unknown tenant succeeded")
	}
}

func TestProfileUploadAndHotSwap(t *testing.T) {
	_, c := newTestServer(t, server.Options{Shards: 4})
	ctx := context.Background()

	readOnly := &seccomp.Profile{
		Name:          "read-only",
		DefaultAction: seccomp.Errno(1),
		Rules:         []seccomp.Rule{{Syscall: syscalls.MustByName("read")}},
	}
	pr, err := c.PutProfile(ctx, "svc", bytes.NewReader(profileJSON(t, readOnly)))
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Created || pr.Generation != 1 {
		t.Fatalf("first upload: %+v", pr)
	}

	res, err := c.Check(ctx, server.CheckRequest{Tenant: "svc", Syscall: "write"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Allowed {
		t.Fatalf("write allowed under read-only: %+v", res)
	}

	// Hot-swap to a profile that also allows write.
	both := &seccomp.Profile{
		Name:          "read-write",
		DefaultAction: seccomp.Errno(1),
		Rules: []seccomp.Rule{
			{Syscall: syscalls.MustByName("read")},
			{Syscall: syscalls.MustByName("write")},
		},
	}
	pr, err = c.PutProfile(ctx, "svc", bytes.NewReader(profileJSON(t, both)))
	if err != nil {
		t.Fatal(err)
	}
	if pr.Created || pr.Generation != 2 {
		t.Fatalf("second upload: %+v", pr)
	}
	res, err = c.Check(ctx, server.CheckRequest{Tenant: "svc", Syscall: "write"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Allowed {
		t.Fatalf("write denied after hot swap: %+v", res)
	}

	// Invalid profile documents are rejected and leave the tenant intact.
	if _, err := c.PutProfile(ctx, "svc", strings.NewReader(`{"defaultAction":"SCMP_ACT_ALLOW","syscalls":[]}`)); err == nil {
		t.Fatal("allow-by-default profile accepted")
	}
	st, err := c.Stats(ctx, "svc")
	if err != nil {
		t.Fatal(err)
	}
	if st.Profile != "svc" || st.Generation != 2 {
		t.Fatalf("tenant state changed after rejected upload: %+v", st)
	}
}

// TestEngineSelection drives the ?engine= surface: per-tenant engine choice
// on profile upload and on auto-provision, conflict detection, and mechanism
// switching by re-upload.
func TestEngineSelection(t *testing.T) {
	ts, c := newTestServer(t, server.Options{Shards: 4, DefaultProfile: seccomp.DockerDefault()})
	ctx := context.Background()

	// Upload with an explicit engine: the tenant runs draco-sw (a
	// sequential engine the server wraps for sharing).
	pr, err := c.PutProfileEngine(ctx, "sw", "draco-sw", bytes.NewReader(profileJSON(t, seccomp.DockerDefault())))
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Created || pr.Engine != "draco-sw" {
		t.Fatalf("upload with engine: %+v", pr)
	}
	res, err := c.Check(ctx, server.CheckRequest{Tenant: "sw", Syscall: "read"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Allowed || res.Cached {
		t.Fatalf("first draco-sw check: %+v", res)
	}
	res, err = c.Check(ctx, server.CheckRequest{Tenant: "sw", Syscall: "read"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Fatalf("second draco-sw check not cached: %+v", res)
	}
	st, err := c.Stats(ctx, "sw")
	if err != nil {
		t.Fatal(err)
	}
	if st.Engine != "draco-sw" || st.Checks != 2 {
		t.Fatalf("draco-sw stats: %+v", st)
	}

	// filter-only never caches.
	if _, err := c.PutProfileEngine(ctx, "fo", "filter-only", bytes.NewReader(profileJSON(t, seccomp.DockerDefault()))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		res, err = c.Check(ctx, server.CheckRequest{Tenant: "fo", Syscall: "read"})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Allowed || res.Cached {
			t.Fatalf("filter-only check %d: %+v", i, res)
		}
	}

	// Auto-provision with ?engine= on the check URL itself.
	resp, err := http.Post(ts.URL+"/v1/check?engine=draco-sw", "application/json",
		strings.NewReader(`{"tenant":"auto","syscall":"read"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("auto-provision with engine: HTTP %d", resp.StatusCode)
	}
	if st, err = c.Stats(ctx, "auto"); err != nil || st.Engine != "draco-sw" {
		t.Fatalf("auto-provisioned engine: %+v err=%v", st, err)
	}

	// A conflicting ?engine= on an existing tenant is rejected.
	resp, err = http.Post(ts.URL+"/v1/check?engine=draco-concurrent", "application/json",
		strings.NewReader(`{"tenant":"auto","syscall":"read"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("conflicting engine accepted on check")
	}

	// Unknown engines are rejected everywhere.
	if _, err := c.PutProfileEngine(ctx, "x", "warp-drive", bytes.NewReader(profileJSON(t, seccomp.DockerDefault()))); err == nil {
		t.Fatal("unknown engine accepted on upload")
	}
	resp, err = http.Post(ts.URL+"/v1/check?engine=warp-drive", "application/json",
		strings.NewReader(`{"tenant":"fresh","syscall":"read"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("unknown engine accepted on check")
	}

	// Re-uploading with a different engine rebuilds the tenant on the new
	// mechanism: stats and generation restart.
	pr, err = c.PutProfileEngine(ctx, "sw", "draco-concurrent", bytes.NewReader(profileJSON(t, seccomp.DockerDefault())))
	if err != nil {
		t.Fatal(err)
	}
	if pr.Created || pr.Engine != "draco-concurrent" || pr.Generation != 1 {
		t.Fatalf("engine switch: %+v", pr)
	}
	if st, err = c.Stats(ctx, "sw"); err != nil || st.Engine != "draco-concurrent" || st.Checks != 0 {
		t.Fatalf("stats after engine switch: %+v err=%v", st, err)
	}
}

func TestBatchEndpoint(t *testing.T) {
	_, c := newTestServer(t, server.Options{Shards: 4, DefaultProfile: seccomp.DockerDefault()})
	ctx := context.Background()

	calls := []server.BatchCall{
		{Syscall: "read", Args: []uint64{3, 0, 4096}},
		{Syscall: "write", Args: []uint64{1, 0, 17}},
		{Syscall: "init_module"},
		{Syscall: "read", Args: []uint64{3, 0, 4096}},
	}
	results, err := c.CheckBatch(ctx, server.BatchRequest{Tenant: "b", Calls: calls})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(calls) {
		t.Fatalf("%d results for %d calls", len(results), len(calls))
	}
	if !results[0].Allowed || !results[1].Allowed || results[2].Allowed || !results[3].Allowed {
		t.Fatalf("decisions: %+v", results)
	}
	// The duplicate read inside one batch is served from the cache.
	if !results[3].Cached {
		t.Fatalf("duplicate call in batch not cached: %+v", results[3])
	}

	// Oversized batches are rejected.
	big := server.BatchRequest{Tenant: "b", Calls: make([]server.BatchCall, server.MaxBatch+1)}
	for i := range big.Calls {
		big.Calls[i] = server.BatchCall{Syscall: "read"}
	}
	if _, err := c.CheckBatch(ctx, big); err == nil {
		t.Fatal("oversized batch accepted")
	}
	// A bad call inside a batch fails the whole request.
	if _, err := c.CheckBatch(ctx, server.BatchRequest{Tenant: "b", Calls: []server.BatchCall{{Syscall: "bogus"}}}); err == nil {
		t.Fatal("bad call in batch accepted")
	}
}

func TestStatsAndMetrics(t *testing.T) {
	_, c := newTestServer(t, server.Options{Shards: 4, DefaultProfile: seccomp.DockerDefault()})
	ctx := context.Background()

	for i := 0; i < 10; i++ {
		if _, err := c.Check(ctx, server.CheckRequest{Tenant: "m", Syscall: "read", Args: []uint64{3}}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Stats(ctx, "m")
	if err != nil {
		t.Fatal(err)
	}
	if st.Checks != 10 || st.FilterRuns != 1 || st.SPTHits != 9 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Engine != server.DefaultEngine || st.Shards != 4 || st.Routing != "syscall" || st.Profile != seccomp.DockerDefault().Name {
		t.Fatalf("stats metadata: %+v", st)
	}

	names, err := c.Tenants(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "m" {
		t.Fatalf("tenants: %v", names)
	}

	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"dracod_checks_total 10",
		"dracod_cache_hits_total 9",
		"dracod_filter_runs_total 1",
		"dracod_tenants 1",
		// Observation-layer series, folded from the engines' Stats.
		"dracod_observed_checks_total 10",
		"dracod_observed_cache_hits_total 9",
		// The 9 steady-state checks of an ID-only constant syscall are
		// served by the concurrent engine's lock-free decision plane.
		`dracod_check_class_total{class="fast-hit"} 9`,
		// The first check resolved through the constant-action bitmap
		// (the locked warm-up that seeds the plane).
		`dracod_check_class_total{class="bitmap-hit"} 1`,
		`dracod_engine_tenants{engine="draco-concurrent"} 1`,
		`dracod_engine_checks_total{engine="draco-concurrent"} 10`,
		`dracod_engine_checks_total{engine="draco-sw"} 0`,
		`dracod_http_requests_total{endpoint="check"} 10`,
		`dracod_http_latency_ns{endpoint="check",quantile="0.99"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics page missing %q:\n%s", want, text)
		}
	}
}

// TestBatchThroughputAdvantage is the acceptance check that batch checking
// at size 64 sustains at least 2x the single-call endpoint's throughput,
// measured over the same HTTP transport.
func TestBatchThroughputAdvantage(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput comparison skipped in -short")
	}
	w := workloads.All()[0]
	tr := w.Generate(20_000, 9)
	p := profilegen.Complete(w.Name, tr, profilegen.Options{IncludeRuntime: true})
	ts, c := newTestServer(t, server.Options{Shards: 4, DefaultProfile: p})
	_ = ts
	ctx := context.Background()

	single := func(n int) {
		for i := 0; i < n; i++ {
			ev := tr[i%len(tr)]
			if _, err := c.Check(ctx, server.CheckRequest{Tenant: "s", Num: &ev.SID, Args: ev.Args[:]}); err != nil {
				t.Fatal(err)
			}
		}
	}
	batched := func(n int) {
		const size = 64
		for off := 0; off < n; off += size {
			calls := make([]server.BatchCall, size)
			for j := range calls {
				ev := tr[(off+j)%len(tr)]
				calls[j] = server.BatchCall{Num: intp(ev.SID), Args: ev.Args[:]}
			}
			if _, err := c.CheckBatch(ctx, server.BatchRequest{Tenant: "b", Calls: calls}); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Warm both tenants and the HTTP connections.
	single(256)
	batched(256)

	const checks = 4096
	singlePerSec := rate(t, checks, func() { single(checks) })
	batchPerSec := rate(t, checks, func() { batched(checks) })
	t.Logf("single: %.0f checks/sec, batch64: %.0f checks/sec (%.1fx)",
		singlePerSec, batchPerSec, batchPerSec/singlePerSec)
	if batchPerSec < 2*singlePerSec {
		t.Fatalf("batch throughput %.0f/s < 2x single %.0f/s", batchPerSec, singlePerSec)
	}
}

func rate(t *testing.T, checks int, f func()) float64 {
	t.Helper()
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f()
		}
	})
	perOp := res.T.Seconds() / float64(res.N)
	return float64(checks) / perOp
}

// BenchmarkServerCheck measures HTTP round-trip throughput of the single
// and batch endpoints; results/concurrent_baseline.json records a run.
func BenchmarkServerCheck(b *testing.B) {
	w := workloads.All()[0]
	tr := w.Generate(20_000, 9)
	p := profilegen.Complete(w.Name, tr, profilegen.Options{IncludeRuntime: true})

	bench := func(b *testing.B, batchSize int) {
		ts := httptest.NewServer(server.New(server.Options{Shards: 4, DefaultProfile: p}).Handler())
		defer ts.Close()
		c := client.New(ts.URL, ts.Client())
		ctx := context.Background()
		var cursor atomic.Uint64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			off := int(cursor.Add(1)) * 7919
			for pb.Next() {
				if batchSize <= 1 {
					ev := tr[off%len(tr)]
					if _, err := c.Check(ctx, server.CheckRequest{Tenant: "t", Num: &ev.SID, Args: ev.Args[:]}); err != nil {
						b.Fatal(err)
					}
					off++
					continue
				}
				calls := make([]server.BatchCall, batchSize)
				for j := range calls {
					ev := tr[(off+j)%len(tr)]
					calls[j] = server.BatchCall{Num: intp(ev.SID), Args: ev.Args[:]}
				}
				if _, err := c.CheckBatch(ctx, server.BatchRequest{Tenant: "t", Calls: calls}); err != nil {
					b.Fatal(err)
				}
				off += batchSize
			}
		})
	}
	b.Run("single", func(b *testing.B) { bench(b, 1) })
	b.Run("batch64", func(b *testing.B) { bench(b, 64) })
}
