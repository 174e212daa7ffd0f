package main

// The metric catalogue: every name the benchmark prints, with its unit.
// BENCHMARK.json at the repository root lists the same names; the smoke
// test fails when the two drift apart.

import (
	"slices"

	"draco/internal/engine"
)

// metricDef names one metric. Bound is the share of the baseline median by
// which an end-to-end metric may worsen (0 on per-layer metrics, which
// have no bound).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd are the metrics a caller of the check service sees and the
// contract bounds. The result line carries exactly these; the rest of what
// an untraced run prints is in extraEndToEnd and unboundedEndToEnd.
var endToEnd = []metricDef{
	{"checks_per_s", "checks/s", "higher", 0.25},
	{"check_p50_ns", "ns", "lower", 0.25},
	{"cpu_ns_per_check", "ns", "lower", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// extraEndToEnd are end-to-end metrics that read 0 on a healthy run, which
// the contract's relative bounds cannot express: -selfcheck compares them
// absolutely (allocs may rise by 0.05, failed_share not at all), and the
// contract line carries failures in its attempted/failed counts instead.
var extraEndToEnd = []metricDef{
	{"allocs_per_check", "allocs", "lower", 0.05},
	{"failed_share", "share", "lower", 0},
}

// unboundedEndToEnd is printed and shown by -selfcheck but judged by
// nobody: on the reference host the tail of identical code spreads past
// the widest bound the contract admits (the traced run reports it as
// client.check_p99_ns).
var unboundedEndToEnd = []metricDef{
	{Name: "check_p99_ns", Unit: "ns", Better: "lower"},
}

// printedEndToEnd is everything an untraced run prints.
var printedEndToEnd = slices.Concat(endToEnd, extraEndToEnd, unboundedEndToEnd)

// perLayer lists the traced run's metrics, named <module>.<metric>.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lo := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	hi := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	defs := []metricDef{
		lo("hashes.argset_ns", "ns"), lo("hashes.argset_share", "share"),
		lo("cuckoo.lookup_hit_ns", "ns"), lo("cuckoo.insert_ns", "ns"), lo("cuckoo.evictions", "count"),
		lo("core.spt_lookup_ns", "ns"), lo("core.vat_lookup_ns", "ns"), lo("core.checker_check_ns", "ns"),
		hi("core.spt_hit_share", "share"), hi("core.vat_hit_share", "share"),
		lo("core.filter_run_share", "share"), lo("core.insert_share", "share"),
		lo("core.denied_share", "share"), lo("core.vat_bytes", "bytes"),
		lo("concurrent.check_ns_1p", "ns"), lo("concurrent.check_ns_2p", "ns"),
		hi("concurrent.scaling_eff_2p", "share"), lo("concurrent.checkbatch64_ns_per_call", "ns"),
		hi("concurrent.plane_coverage", "share"), hi("concurrent.fast_hit_share", "share"),
		lo("concurrent.set_profile_us", "us"),
		lo("seccomp.filter_check_ns", "ns"), lo("seccomp.insns_per_run", "insns"),
		hi("seccomp.bitmap_hit_share", "share"), lo("seccomp.new_filter_us", "us"),
		lo("engine.filter_only_ns", "ns"), lo("engine.draco_sw_ns", "ns"),
		lo("engine.concurrent_ns", "ns"), lo("engine.concurrent_slb_ns", "ns"),
		lo("engine.observer_ns", "ns"),
	}
	for c := engine.LatencyClass(0); c < engine.NumLatencyClasses; c++ {
		defs = append(defs, lo("engine.class."+c.String()+"_share", "share"))
	}
	return append(defs,
		lo("wire.check_req_encode_ns", "ns"), lo("wire.check_req_decode_ns", "ns"),
		lo("wire.check_resp_encode_ns", "ns"), lo("wire.check_resp_decode_ns", "ns"),
		lo("wire.batch64_encode_ns", "ns"), lo("wire.batch64_decode_ns", "ns"),
		lo("wire.frame_roundtrip_ns", "ns"), lo("wire.bytes_per_check", "bytes"),
		lo("shm.claim_publish_ns", "ns"), lo("shm.consume_release_ns", "ns"),
		lo("shm.ring_pingpong_ns", "ns"), lo("shm.doorbell_wake_us", "us"),
		lo("shm.parks_per_kcheck", "1/kcheck"), lo("shm.wakes_per_kcheck", "1/kcheck"),
		hi("shm.spin_budget", "polls"),
		hi("server.coalesce_mean_batch", "checks"), lo("server.flushes_per_kcheck", "1/kcheck"),
		lo("server.wire_check_latency_p50_ns", "ns"), lo("server.frames_per_kcheck", "1/kcheck"),
		lo("client.check_p99_ns", "ns"), lo("client.check_p999_ns", "ns"), lo("client.check_max_ns", "ns"),
		lo("client.allocs_per_check", "allocs"),
		hi("budget.explained_share", "share"), lo("trace.overhead_share", "share"),
	)
}

// value is one measured metric as the contract's result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last stdout line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// pick builds the result metrics for defs out of measured values; a metric
// nobody measured is a bug in the benchmark and reads 0.
func pick(defs []metricDef, measured map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.Name] = value{Value: measured[d.Name], Unit: d.Unit}
	}
	return out
}
