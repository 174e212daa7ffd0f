package main

import (
	"io"
	"testing"

	"draco/internal/shm"
	"draco/internal/workloads"
)

// TestLoadgenEveryEdge drives one small workload over every edge the
// platform supports: each must finish without error and complete every
// check of the trace.
func TestLoadgenEveryEdge(t *testing.T) {
	const events = 2000
	w, ok := workloads.ByName("httpd")
	if !ok {
		t.Fatal("no httpd workload")
	}
	results, err := loadgenMode(io.Discard, loadgenConfig{
		workloads: []*workloads.Workload{w}, events: events, reps: 1, seed: 1,
		concurrency: 2, conns: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"wire"}
	if shm.Supported() {
		want = append(want, "shm", "shm_fold")
	}
	if len(results) != len(want) {
		t.Fatalf("got %d edge results, want %d (%v)", len(results), len(want), want)
	}
	for i, res := range results {
		if res.Edge != want[i] || res.Workload != "httpd" {
			t.Errorf("result %d is %s over %s, want httpd over %s", i, res.Workload, res.Edge, want[i])
		}
		if len(res.Reps) != 1 {
			t.Fatalf("%s: %d reps, want 1", res.Edge, len(res.Reps))
		}
		if rep := res.Reps[0]; rep.Ops != events || rep.OpsPerSec <= 0 {
			t.Errorf("%s: %d ops at %.0f ops/s, want %d ops", res.Edge, rep.Ops, rep.OpsPerSec, events)
		}
	}
}
