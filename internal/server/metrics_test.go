package server_test

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"

	"draco/internal/seccomp"
	"draco/internal/server"
)

// totalSeries parses the `_total` series of a metrics page.
func totalSeries(t *testing.T, page string) map[string]uint64 {
	t.Helper()
	out := make(map[string]uint64)
	for _, line := range strings.Split(page, "\n") {
		name, value, ok := strings.Cut(line, " ")
		base, _, _ := strings.Cut(name, "{")
		if !ok || !strings.HasSuffix(base, "_total") {
			continue
		}
		n, err := strconv.ParseUint(value, 10, 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		out[name] = n
	}
	return out
}

// TestMetricsTotalsSurviveEngineSwitch: re-uploading a tenant's profile with
// another ?engine= closes the old engine, and /metrics is folded from live
// engines' Stats — so what the closed engine counted must be carried in the
// retired totals. Every `_total` series must be monotone across two
// switches with checks in between, and the per-engine split must add up.
func TestMetricsTotalsSurviveEngineSwitch(t *testing.T) {
	_, c := newTestServer(t, server.Options{Shards: 4, DefaultProfile: seccomp.DockerDefault()})
	ctx := context.Background()
	check := func(n int, syscall string) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := c.Check(ctx, server.CheckRequest{Tenant: "a", Syscall: syscall, Args: []uint64{3}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	var prev map[string]uint64
	scrape := func(step string) map[string]uint64 {
		t.Helper()
		page, err := c.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		cur := totalSeries(t, page)
		for name, was := range prev {
			if now, ok := cur[name]; !ok || now < was {
				t.Errorf("%s: %s went from %d to %d (present=%t)", step, name, was, now, ok)
			}
		}
		prev = cur
		return cur
	}
	switchTo := func(eng string) {
		t.Helper()
		pr, err := c.PutProfileEngine(ctx, "a", eng, bytes.NewReader(profileJSON(t, seccomp.DockerDefault())))
		if err != nil || pr.Engine != eng || pr.Generation != 1 {
			t.Fatalf("switch to %s: %+v, %v", eng, pr, err)
		}
	}

	check(4, "read")
	check(1, "init_module")
	scrape("before any switch")
	switchTo("draco-sw")
	scrape("after the first switch")
	check(2, "read")
	check(1, "init_module")
	scrape("on the second engine")
	switchTo("draco-concurrent")
	check(2, "read")
	last := scrape("after the second switch")

	for series, want := range map[string]uint64{
		"dracod_checks_total":                                       10,
		"dracod_observed_checks_total":                              10,
		"dracod_denials_total":                                      2,
		"dracod_observed_denials_total":                             2,
		`dracod_engine_checks_total{engine="draco-concurrent"}`:     7,
		`dracod_engine_checks_total{engine="draco-sw"}`:             3,
		`dracod_engine_denials_total{engine="draco-sw"}`:            1,
		`dracod_check_class_total{class="denied"}`:                  1, // draco-sw's; the plane serves the other
		`dracod_check_class_total{class="id-fast"}`:                 1, // draco-sw's second read
		`dracod_engine_cache_hits_total{engine="draco-concurrent"}`: 4,
	} {
		if got, ok := last[series]; !ok || got != want {
			t.Errorf("%s = %d (present=%t), want %d", series, got, ok, want)
		}
	}
	var classes uint64
	for name, n := range last {
		if strings.HasPrefix(name, "dracod_check_class_total{") {
			classes += n
		}
	}
	if classes != 10 {
		t.Errorf("class series sum to %d, want 10", classes)
	}
}
