package server_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"draco/internal/engine"
	"draco/internal/seccomp"
	"draco/internal/server"
	"draco/internal/server/client"
	"draco/internal/syscalls"
)

// newTestServer serves one Server over both of its planes: the HTTP
// control API and a wire listener that carries the checks. Everything is
// torn down with the test.
func newTestServer(t testing.TB, opts server.Options) (*httptest.Server, *client.Client, *client.Wire) {
	t.Helper()
	srv, wc := newWireServer(t, opts, client.WireOptions{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, client.New(ts.URL, ts.Client()), wc
}

// metricsPage renders srv's /metrics page through its HTTP handler.
func metricsPage(srv *server.Server) string {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return rec.Body.String()
}

func profileJSON(t testing.TB, p *seccomp.Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := seccomp.WriteJSON(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckRoutesGone: HTTP is the control plane only. The check routes
// are not served, so a check cannot take a second path with its own
// validation.
func TestCheckRoutesGone(t *testing.T) {
	h := server.New(server.Options{DefaultProfile: seccomp.DockerDefault()}).Handler()
	for _, op := range []string{"check", "check-batch"} {
		path := "/v1/" + op
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path,
			strings.NewReader(`{"tenant":"t","syscall":"read"}`)))
		if rec.Code != http.StatusNotFound && rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("POST %s: HTTP %d, want 404 or 405", path, rec.Code)
		}
	}
}

func TestUnknownTenantWithoutDefault(t *testing.T) {
	_, c, wc := newTestServer(t, server.Options{}) // no default profile
	ctx := context.Background()
	if _, err := wc.Check(ctx, "ghost", sidOf(t, "read"), engine.Args{}); err == nil {
		t.Fatal("check on unknown tenant succeeded without a default profile")
	}
	if _, err := c.Stats(ctx, "ghost"); err == nil {
		t.Fatal("stats on unknown tenant succeeded")
	}
}

func TestProfileUploadAndHotSwap(t *testing.T) {
	_, c, wc := newTestServer(t, server.Options{Shards: 4})
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

	res, err := wc.Check(ctx, "svc", sidOf(t, "write"), engine.Args{})
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
	res, err = wc.Check(ctx, "svc", sidOf(t, "write"), engine.Args{})
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

// TestTenantNamesEscaped: the HTTP client path-escapes tenant names, so a
// name legal over wire and shm reaches the same tenant over HTTP, and an
// escaped-looking name is a tenant of its own rather than an alias of
// another.
func TestTenantNamesEscaped(t *testing.T) {
	_, c, wc := newTestServer(t, server.Options{Shards: 4})
	ctx := context.Background()
	pj := profileJSON(t, seccomp.DockerDefault())
	names := []string{"a/b", "x?y", "p q", "a%2Fb"}
	for _, name := range names {
		pr, err := c.PutProfile(ctx, name, bytes.NewReader(pj))
		if err != nil {
			t.Fatalf("PUT %q: %v", name, err)
		}
		if pr.Tenant != name || !pr.Created || pr.Generation != 1 {
			t.Fatalf("PUT %q answered %+v", name, pr)
		}
		st, err := c.Stats(ctx, name)
		if err != nil {
			t.Fatalf("stats %q: %v", name, err)
		}
		if st.Tenant != name {
			t.Fatalf("stats %q answered tenant %q", name, st.Tenant)
		}
		// The wire edge sees the tenant HTTP provisioned.
		if ws, err := wc.Stats(ctx, name); err != nil || ws.Generation != st.Generation {
			t.Fatalf("wire stats %q: %+v, %v", name, ws, err)
		}
	}
	// The PUT for "a%2Fb" created its own tenant: "a/b" was not swapped.
	if st, err := c.Stats(ctx, "a/b"); err != nil || st.Generation != 1 {
		t.Fatalf(`"a/b" after the PUT for "a%%2Fb": %+v, %v`, st, err)
	}
	if got, err := c.Tenants(ctx); err != nil || !slices.Equal(got, []string{"a%2Fb", "a/b", "p q", "x?y"}) {
		t.Fatalf("tenants %q, %v", got, err)
	}
}

// TestOtherEnginesRejected: dracod serves one engine. A profile upload may
// name it or nothing; naming any other registry engine, or an unknown one,
// is a 400 that provisions no tenant.
func TestOtherEnginesRejected(t *testing.T) {
	ts, c, _ := newTestServer(t, server.Options{Shards: 4})
	ctx := context.Background()
	put := func(tenant, query string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/tenants/"+tenant+"/profile"+query,
			bytes.NewReader(profileJSON(t, seccomp.DockerDefault())))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, q := range []string{"?engine=draco-sw", "?engine=warp-drive"} {
		if code := put("other", q); code != http.StatusBadRequest {
			t.Fatalf("PUT %s: HTTP %d, want 400", q, code)
		}
	}
	if names, err := c.Tenants(ctx); err != nil || len(names) != 0 {
		t.Fatalf("rejected uploads provisioned tenants: %v, %v", names, err)
	}
	for tenant, q := range map[string]string{"plain": "", "named": "?engine=" + server.DefaultEngine} {
		if code := put(tenant, q); code != http.StatusOK {
			t.Fatalf("PUT %q: HTTP %d, want 200", q, code)
		}
		if st, err := c.Stats(ctx, tenant); err != nil || st.Engine != server.DefaultEngine {
			t.Fatalf("tenant %s: %+v, %v", tenant, st, err)
		}
	}
}

func TestStatsAndMetrics(t *testing.T) {
	_, c, wc := newTestServer(t, server.Options{Shards: 4, DefaultProfile: seccomp.DockerDefault()})
	ctx := context.Background()

	for i := 0; i < 10; i++ {
		if _, err := wc.Check(ctx, "m", sidOf(t, "read"), engine.Args{3}); err != nil {
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

	// Two listings, each counted under its own endpoint label.
	for i := 0; i < 2; i++ {
		names, err := c.Tenants(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(names) != 1 || names[0] != "m" {
			t.Fatalf("tenants: %v", names)
		}
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
		// The 9 steady-state checks of an ID-only constant syscall are
		// served by the checker's lock-free decision plane.
		`dracod_check_class_total{class="fast-hit"} 9`,
		// The first check resolved through the constant-action bitmap
		// (the locked warm-up that seeds the plane).
		`dracod_check_class_total{class="bitmap-hit"} 1`,
		"dracod_wire_checks_total 10",
		`dracod_http_requests_total{endpoint="stats"} 1`,
		`dracod_http_requests_total{endpoint="tenants"} 2`,
		`dracod_http_latency_ns{endpoint="stats",quantile="0.99"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics page missing %q:\n%s", want, text)
		}
	}
	// Every check lands in exactly one class.
	var classes uint64
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "dracod_check_class_total{"); ok {
			_, v, _ := strings.Cut(rest, " ")
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatalf("metrics line %q: %v", line, err)
			}
			classes += n
		}
	}
	if classes != st.Checks {
		t.Errorf("dracod_check_class_total sums to %d, dracod_checks_total is %d", classes, st.Checks)
	}
}
