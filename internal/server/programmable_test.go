package server_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"draco/internal/engine"
	"draco/internal/seccomp"
	"draco/internal/server"
	"draco/internal/server/client"
)

// examplePolicy loads one of the shipped demo profiles from
// examples/programmable, so these end-to-end tests prove the exact JSON
// files users copy actually work through dracod.
func examplePolicy(t testing.TB, file string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "examples", "programmable", file))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// checkSyscall checks one named call over the wire.
func checkSyscall(t *testing.T, wc *client.Wire, tenant, name string, args ...uint64) engine.Decision {
	t.Helper()
	var a engine.Args
	copy(a[:], args)
	res, err := wc.Check(context.Background(), tenant, sidOf(t, name), a)
	if err != nil {
		t.Fatalf("check %s: %v", name, err)
	}
	return res
}

// TestProgrammableRateLimitE2E drives the shipped open() rate-limit policy
// through dracod: the 5th open — byte-identical to the first four — is
// denied, which no stateless whitelist can express. A profile re-upload
// starts a fresh map epoch, restoring the budget.
func TestProgrammableRateLimitE2E(t *testing.T) {
	_, c, wc := newTestServer(t, server.Options{})
	ctx := context.Background()
	raw := examplePolicy(t, "rate-limit.json")
	if _, err := c.PutProfile(ctx, "rl", bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}

	for i := 1; i <= 4; i++ {
		if res := checkSyscall(t, wc, "rl", "open", 0, 0); !res.Allowed {
			t.Fatalf("open %d denied under budget: %+v", i, res)
		}
	}
	res := checkSyscall(t, wc, "rl", "open", 0, 0)
	if res.Allowed || res.Action != seccomp.Errno(1) {
		t.Fatalf("5th identical open: %+v (want errno(1) denial)", res)
	}
	// openat shares the budget, so it is denied too; reads are untouched.
	if res := checkSyscall(t, wc, "rl", "openat", 0xffffff9c, 0, 0); res.Allowed {
		t.Fatalf("openat allowed past the shared budget: %+v", res)
	}
	if res := checkSyscall(t, wc, "rl", "read", 3, 0, 4096); !res.Allowed {
		t.Fatalf("read denied by an open rate limit: %+v", res)
	}

	// Hot-swap epoch: re-uploading the same profile resets map state.
	pr, err := c.PutProfile(ctx, "rl", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if pr.Created || pr.Generation != 2 {
		t.Fatalf("re-upload: %+v", pr)
	}
	if res := checkSyscall(t, wc, "rl", "open", 0, 0); !res.Allowed {
		t.Fatalf("open denied right after a fresh epoch: %+v", res)
	}
}

// TestProgrammableOpenBeforeReadE2E: the same read(fd, ...) request flips
// from denied to allowed once an open has been observed — a relational,
// order-dependent decision.
func TestProgrammableOpenBeforeReadE2E(t *testing.T) {
	_, c, wc := newTestServer(t, server.Options{})
	if _, err := c.PutProfile(context.Background(), "seq", bytes.NewReader(examplePolicy(t, "open-before-read.json"))); err != nil {
		t.Fatal(err)
	}
	res := checkSyscall(t, wc, "seq", "read", 3, 0, 4096)
	if res.Allowed || res.Action != seccomp.Errno(9) {
		t.Fatalf("read before any open: %+v (want errno(9))", res)
	}
	if res := checkSyscall(t, wc, "seq", "open", 0, 0); !res.Allowed {
		t.Fatalf("open denied: %+v", res)
	}
	if res := checkSyscall(t, wc, "seq", "read", 3, 0, 4096); !res.Allowed {
		t.Fatalf("identical read after open still denied: %+v", res)
	}
}

// TestProgrammablePhaseTighteningE2E: execve/socket are allowed during init
// and denied after the tenant marks itself serving via prctl — the
// whitelist never changes, the program narrows it over time.
func TestProgrammablePhaseTighteningE2E(t *testing.T) {
	_, c, wc := newTestServer(t, server.Options{})
	if _, err := c.PutProfile(context.Background(), "svc", bytes.NewReader(examplePolicy(t, "phase-tightening.json"))); err != nil {
		t.Fatal(err)
	}
	if res := checkSyscall(t, wc, "svc", "execve", 0, 0, 0); !res.Allowed {
		t.Fatalf("init-phase execve denied: %+v", res)
	}
	if res := checkSyscall(t, wc, "svc", "socket", 2, 1, 0); !res.Allowed {
		t.Fatalf("init-phase socket denied: %+v", res)
	}
	if res := checkSyscall(t, wc, "svc", "prctl", 1); !res.Allowed {
		t.Fatalf("prctl denied: %+v", res)
	}
	if res := checkSyscall(t, wc, "svc", "execve", 0, 0, 0); res.Allowed {
		t.Fatalf("serve-phase execve allowed: %+v", res)
	}
	if res := checkSyscall(t, wc, "svc", "socket", 2, 1, 0); res.Allowed {
		t.Fatalf("serve-phase socket allowed: %+v", res)
	}
	if res := checkSyscall(t, wc, "svc", "read", 3, 0, 4096); !res.Allowed {
		t.Fatalf("ungated read denied: %+v", res)
	}
}

// TestProgrammableBitmapResolutionE2E pins the acceptance criterion at the
// API surface: under the server's default bitmap exec tier, syscalls whose
// programmable verdict is map-independent report zero executed filter
// instructions on every check, while the stateful open path executes the
// program each time. /metrics exposes both as prog-hit / prog-miss classes.
func TestProgrammableBitmapResolutionE2E(t *testing.T) {
	_, c, wc := newTestServer(t, server.Options{})
	ctx := context.Background()
	if _, err := c.PutProfile(ctx, "bm", bytes.NewReader(examplePolicy(t, "rate-limit.json"))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for _, name := range []string{"read", "close", "write"} {
			if res := checkSyscall(t, wc, "bm", name, 3, 0, 4096); !res.Allowed || res.FilterInstructions != 0 {
				t.Fatalf("const path %s round %d: %+v (want allowed, 0 instructions)", name, i, res)
			}
		}
	}
	if res := checkSyscall(t, wc, "bm", "open", 0, 0); !res.Allowed || res.FilterInstructions == 0 {
		t.Fatalf("must-run open: %+v (want executed instructions)", res)
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range []string{"prog-hit", "prog-miss"} {
		if !strings.Contains(text, class) {
			t.Fatalf("/metrics lacks %q class:\n%s", class, text)
		}
	}
}

// TestProgrammableBatchOrderE2E: stateful policies make batch order
// semantic — the server must evaluate a batch in submission order, so a
// batch of five opens has exactly the last one denied, and under
// open-before-read a batch interleaving reads with an open, constant
// allows and a constant deny denies exactly the reads before the open.
func TestProgrammableBatchOrderE2E(t *testing.T) {
	_, c, wc := newTestServer(t, server.Options{})
	ctx := context.Background()
	if _, err := c.PutProfile(ctx, "batch", bytes.NewReader(examplePolicy(t, "rate-limit.json"))); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PutProfile(ctx, "order", bytes.NewReader(examplePolicy(t, "open-before-read.json"))); err != nil {
		t.Fatal(err)
	}
	names := []string{"read", "getpid", "read", "open", "read", "fstat", "getpid", "read", "close", "openat", "read", "write"}
	order := make([]engine.Call, len(names))
	for i, n := range names {
		order[i] = engine.Call{SID: sidOf(t, n), Args: engine.Args{3, 0, 4096}}
	}
	got, err := wc.CheckBatch(ctx, "order", order, nil)
	if err != nil {
		t.Fatal(err)
	}
	opened := false
	for i, n := range names {
		opened = opened || n == "open"
		want := n != "getpid" && (n != "read" || opened)
		if got[i].Allowed != want {
			t.Fatalf("order batch call %d (%s): %+v, want allowed=%v", i, n, got[i], want)
		}
	}
	var calls []engine.Call
	for i := 0; i < 5; i++ {
		calls = append(calls, engine.Call{SID: sidOf(t, "open")})
	}
	results, err := wc.CheckBatch(ctx, "batch", calls, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results[:4] {
		if !r.Allowed {
			t.Fatalf("batch open %d denied under budget: %+v", i+1, r)
		}
	}
	if results[4].Allowed {
		t.Fatalf("batch 5th open allowed: %+v", results[4])
	}
}

// TestProgrammableJSONRoundTrip: a parsed example profile re-serializes
// with its program and maps intact, and the re-parsed copy verifies again.
func TestProgrammableJSONRoundTrip(t *testing.T) {
	for _, file := range []string{"rate-limit.json", "open-before-read.json", "phase-tightening.json"} {
		p, err := seccomp.ReadJSON(bytes.NewReader(examplePolicy(t, file)), file)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if p.Programmable == nil {
			t.Fatalf("%s: no programmable policy parsed", file)
		}
		var buf bytes.Buffer
		if err := seccomp.WriteJSON(&buf, p); err != nil {
			t.Fatalf("%s: write: %v", file, err)
		}
		p2, err := seccomp.ReadJSON(&buf, file)
		if err != nil {
			t.Fatalf("%s: re-read: %v", file, err)
		}
		if p2.Programmable == nil || p2.Programmable.Name != p.Programmable.Name {
			t.Fatalf("%s: programmable policy lost in round trip", file)
		}
		if len(p2.Programmable.Text) != len(p.Programmable.Text) {
			t.Fatalf("%s: program text changed in round trip", file)
		}
	}
}
