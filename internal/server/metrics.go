package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"draco/internal/core"
	"draco/internal/shm"
	"draco/internal/stats"
)

// histBuckets is the fixed latency bucket ladder: powers of two from 256ns
// to ~8.6s, plus an overflow bucket. Fixed buckets keep recording a single
// atomic increment — no allocation, no locks, no external deps.
const (
	histBuckets   = 26
	histBaseNanos = 256
)

// Histogram is a fixed-bucket latency histogram safe for concurrent use.
type Histogram struct {
	count   atomic.Uint64
	sumNs   atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// bucketFor maps a duration to its bucket index.
func bucketFor(d time.Duration) int {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	bound := int64(histBaseNanos)
	for i := 0; i < histBuckets-1; i++ {
		if ns < bound {
			return i
		}
		bound <<= 1
	}
	return histBuckets - 1
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	h.count.Add(1)
	h.sumNs.Add(uint64(max64(d.Nanoseconds(), 0)))
	h.buckets[bucketFor(d)].Add(1)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// MeanNanos returns the mean sample in nanoseconds (0 when empty).
func (h *Histogram) MeanNanos() uint64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return h.sumNs.Load() / n
}

// Quantile returns an upper bound on the q-quantile latency in nanoseconds,
// resolved to bucket granularity (the bucket's lower bound is reported).
// q is clamped to [0,1]. The rank walk is the shared
// stats.BucketQuantileIndex, pinned against the original inline
// implementation by a differential test.
func (h *Histogram) Quantile(q float64) uint64 {
	var counts [histBuckets]uint64
	for i := range counts {
		counts[i] = h.buckets[i].Load()
	}
	idx := stats.BucketQuantileIndex(counts[:], q)
	if idx < 0 {
		return 0
	}
	// Bucket i covers [2^(i-1)*histBaseNanos, 2^i*histBaseNanos); its
	// lower bound is histBaseNanos/2 << i.
	return uint64(histBaseNanos) >> 1 << idx
}

// Metrics is dracod's live counter set. Endpoint histograms are created up
// front so the hot path never takes a lock.
type Metrics struct {
	start     time.Time
	requests  map[string]*atomic.Uint64
	latencies map[string]*Histogram
	// ProfileSwaps counts successful profile uploads.
	ProfileSwaps atomic.Uint64
	// HTTPErrors counts requests answered with a 4xx/5xx status.
	HTTPErrors atomic.Uint64
	// EncodeErrors counts JSON response documents that failed to encode
	// (a programming error surfaced instead of a silent empty body).
	EncodeErrors atomic.Uint64
	// WriteErrors counts JSON response bodies the client connection
	// rejected mid-write (peer went away).
	WriteErrors atomic.Uint64

	// Wire-protocol front-end counters (the binary fast path).

	// WireConnsTotal counts accepted wire connections.
	WireConnsTotal atomic.Uint64
	// WireConnsActive tracks currently-open wire connections.
	WireConnsActive atomic.Int64
	// WireChecks counts single-check frames answered.
	WireChecks atomic.Uint64
	// WireBatchCalls counts calls served through batch frames.
	WireBatchCalls atomic.Uint64
	// WireFlushes counts response drains that pushed at least one
	// single-check response, so WireChecks/WireFlushes is the mean burst a
	// connection pipelines between drains.
	WireFlushes atomic.Uint64
	// WireErrors counts error frames sent (request-level failures).
	WireErrors atomic.Uint64
	// WireFrameErrors counts framing failures that dropped a connection.
	WireFrameErrors atomic.Uint64
	// WireCheckLatency tracks the service time of single checks, from the
	// frame's decode until its decision is ready; the sample is recorded
	// before the response is published, so a caller whose check returned
	// already sees it. Sampled: each connection's first single-check
	// frame, then one in latencySampleEvery. Count is the number of
	// samples, not of checks.
	WireCheckLatency Histogram
	// WireBatchLatency tracks the service time of batch frames, from decode
	// until the encoded response is ready, recorded before publishing and
	// sampled the same way per connection.
	WireBatchLatency Histogram

	// Shared-memory front-end counters. Checks and batches moving over the
	// rings are counted by the session-layer (Wire*) series above, which
	// span every transport; these cover what is shm-specific.

	// ShmConnsTotal counts accepted shm control connections.
	ShmConnsTotal atomic.Uint64
	// ShmConnsActive tracks currently-open shm connections.
	ShmConnsActive atomic.Int64
	// ShmRings counts ring pairs established (one per handshake).
	ShmRings atomic.Uint64
	// ShmFrames counts frames consumed from submission rings.
	ShmFrames atomic.Uint64
	// ShmFrameErrors counts torn or corrupt slots that killed a session.
	ShmFrameErrors atomic.Uint64
	// ShmWakes counts doorbell rings sent to parked client consumers.
	ShmWakes atomic.Uint64
	// ShmParks accumulates server ring-consumer parks folded in from
	// spin controllers of torn-down rings; live rings contribute their
	// controllers' counts on top at render time (see shmParkTotal).
	ShmParks atomic.Uint64

	// shmLive registers each live ring's spin controller and doorbell kind
	// so the page can render per-ring budget gauges and per-mode
	// connection counts. Registration happens once per handshake — far off
	// the hot path — so a plain mutex is fine.
	shmMu   sync.Mutex
	shmLive map[uint64]shmRingEntry
}

// shmRingEntry is one live ring pair's metrics handle.
type shmRingEntry struct {
	spin *shm.SpinController
	kind shm.DoorbellKind
}

// addShmRing registers a ring pair's spin controller for gauge export.
func (m *Metrics) addShmRing(id uint64, spin *shm.SpinController, kind shm.DoorbellKind) {
	m.shmMu.Lock()
	if m.shmLive == nil {
		m.shmLive = make(map[uint64]shmRingEntry)
	}
	m.shmLive[id] = shmRingEntry{spin: spin, kind: kind}
	m.shmMu.Unlock()
}

// dropShmRing unregisters a torn-down ring pair, folding its park count
// into the durable base so dracod_shm_park_total never goes backwards.
func (m *Metrics) dropShmRing(id uint64, spin *shm.SpinController, kind shm.DoorbellKind) {
	m.ShmParks.Add(spin.Parks())
	m.shmMu.Lock()
	delete(m.shmLive, id)
	m.shmMu.Unlock()
}

// shmParkTotal is the monotone park counter: the folded base plus every
// live ring's controller.
func (m *Metrics) shmParkTotal() uint64 {
	total := m.ShmParks.Load()
	m.shmMu.Lock()
	for _, e := range m.shmLive {
		total += e.spin.Parks()
	}
	m.shmMu.Unlock()
	return total
}

// endpointLabels are the HTTP endpoints, one counter and histogram each, in
// the order the metrics page renders them.
var endpointLabels = []string{"metrics", "profile", "stats", "tenants"}

// NewMetrics creates the counter set.
func NewMetrics() *Metrics {
	m := &Metrics{
		start:     time.Now(),
		requests:  make(map[string]*atomic.Uint64, len(endpointLabels)),
		latencies: make(map[string]*Histogram, len(endpointLabels)),
	}
	for _, e := range endpointLabels {
		m.requests[e] = &atomic.Uint64{}
		m.latencies[e] = &Histogram{}
	}
	return m
}

// ObserveRequest records one served request for an endpoint label.
func (m *Metrics) ObserveRequest(endpoint string, d time.Duration) {
	if r, ok := m.requests[endpoint]; ok {
		r.Add(1)
		m.latencies[endpoint].Observe(d)
	}
}

// checkerTotals is the scrape-time fold of every tenant checker's Stats the
// metrics page renders.
type checkerTotals struct {
	Tenants  int
	Stats    core.Stats
	VATBytes int
}

// WriteTo renders the metrics in a flat, plain-text exposition format
// (counter name, space, value — one per line, prometheus-style labels on
// the per-endpoint series).
func (m *Metrics) WriteTo(w io.Writer, totals checkerTotals) {
	fmt.Fprintf(w, "dracod_uptime_seconds %.3f\n", time.Since(m.start).Seconds())
	fmt.Fprintf(w, "dracod_tenants %d\n", totals.Tenants)
	fmt.Fprintf(w, "dracod_checks_total %d\n", totals.Stats.Checks)
	fmt.Fprintf(w, "dracod_cache_hits_total %d\n", totals.Stats.SPTHits+totals.Stats.VATHits)
	fmt.Fprintf(w, "dracod_spt_hits_total %d\n", totals.Stats.SPTHits)
	fmt.Fprintf(w, "dracod_vat_hits_total %d\n", totals.Stats.VATHits)
	fmt.Fprintf(w, "dracod_filter_runs_total %d\n", totals.Stats.FilterRuns)
	fmt.Fprintf(w, "dracod_denials_total %d\n", totals.Stats.Denied)
	for cl, n := range totals.Stats.Classes {
		fmt.Fprintf(w, "dracod_check_class_total{class=%q} %d\n", core.LatencyClass(cl).String(), n)
	}
	fmt.Fprintf(w, "dracod_vat_bytes %d\n", totals.VATBytes)
	fmt.Fprintf(w, "dracod_profile_swaps_total %d\n", m.ProfileSwaps.Load())
	fmt.Fprintf(w, "dracod_http_errors_total %d\n", m.HTTPErrors.Load())
	fmt.Fprintf(w, "dracod_http_encode_errors_total %d\n", m.EncodeErrors.Load())
	fmt.Fprintf(w, "dracod_http_write_errors_total %d\n", m.WriteErrors.Load())

	// Wire front-end series: the binary protocol's connection and frame
	// counters.
	fmt.Fprintf(w, "dracod_wire_conns_active %d\n", m.WireConnsActive.Load())
	fmt.Fprintf(w, "dracod_wire_conns_total %d\n", m.WireConnsTotal.Load())
	fmt.Fprintf(w, "dracod_wire_checks_total %d\n", m.WireChecks.Load())
	fmt.Fprintf(w, "dracod_wire_batch_calls_total %d\n", m.WireBatchCalls.Load())
	fmt.Fprintf(w, "dracod_wire_check_flushes_total %d\n", m.WireFlushes.Load())
	fmt.Fprintf(w, "dracod_wire_errors_total %d\n", m.WireErrors.Load())
	fmt.Fprintf(w, "dracod_wire_frame_errors_total %d\n", m.WireFrameErrors.Load())
	for _, wh := range []struct {
		op string
		h  *Histogram
	}{{"check", &m.WireCheckLatency}, {"batch", &m.WireBatchLatency}} {
		if wh.h.Count() == 0 {
			continue
		}
		fmt.Fprintf(w, "dracod_wire_latency_mean_ns{op=%q} %d\n", wh.op, wh.h.MeanNanos())
		for _, q := range []float64{0.5, 0.9, 0.99} {
			fmt.Fprintf(w, "dracod_wire_latency_ns{op=%q,quantile=\"%g\"} %d\n", wh.op, q, wh.h.Quantile(q))
		}
	}

	// Shared-memory front-end series.
	fmt.Fprintf(w, "dracod_shm_conns_active %d\n", m.ShmConnsActive.Load())
	fmt.Fprintf(w, "dracod_shm_conns_total %d\n", m.ShmConnsTotal.Load())
	fmt.Fprintf(w, "dracod_shm_rings_total %d\n", m.ShmRings.Load())
	fmt.Fprintf(w, "dracod_shm_frames_total %d\n", m.ShmFrames.Load())
	fmt.Fprintf(w, "dracod_shm_frame_errors_total %d\n", m.ShmFrameErrors.Load())
	fmt.Fprintf(w, "dracod_shm_wake_total %d\n", m.ShmWakes.Load())
	fmt.Fprintf(w, "dracod_shm_park_total %d\n", m.shmParkTotal())
	// Per-ring adaptive spin budgets and per-doorbell-mode connection
	// counts, from the live ring registry.
	m.shmMu.Lock()
	ringIDs := make([]uint64, 0, len(m.shmLive))
	for id := range m.shmLive {
		ringIDs = append(ringIDs, id)
	}
	sort.Slice(ringIDs, func(i, j int) bool { return ringIDs[i] < ringIDs[j] })
	modes := make(map[shm.DoorbellKind]int)
	for _, id := range ringIDs {
		e := m.shmLive[id]
		fmt.Fprintf(w, "dracod_shm_spin_budget{ring=\"%d\"} %d\n", id, e.spin.Budget())
		modes[e.kind]++
	}
	m.shmMu.Unlock()
	for _, k := range []shm.DoorbellKind{shm.DoorbellSocket, shm.DoorbellFutex} {
		if n := modes[k]; n > 0 {
			fmt.Fprintf(w, "dracod_shm_doorbell_conns{mode=%q} %d\n", k, n)
		}
	}

	for _, e := range endpointLabels {
		h := m.latencies[e]
		fmt.Fprintf(w, "dracod_http_requests_total{endpoint=%q} %d\n", e, m.requests[e].Load())
		if h.Count() == 0 {
			continue
		}
		fmt.Fprintf(w, "dracod_http_latency_mean_ns{endpoint=%q} %d\n", e, h.MeanNanos())
		for _, q := range []float64{0.5, 0.9, 0.99} {
			fmt.Fprintf(w, "dracod_http_latency_ns{endpoint=%q,quantile=\"%g\"} %d\n", e, q, h.Quantile(q))
		}
	}
}
