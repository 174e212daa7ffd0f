// Package server implements dracod's HTTP serving layer: a stdlib-only JSON
// API that exposes Draco's concurrent checker as a long-running,
// multi-tenant syscall-check service.
//
// Endpoints:
//
//	POST /v1/check                     check one system call
//	POST /v1/check-batch               check a batch (amortized, AnyCall-style)
//	PUT  /v1/tenants/{id}/profile      upload a Docker-format JSON profile (hot swap)
//	GET  /v1/tenants/{id}/stats        per-tenant checker statistics
//	GET  /metrics                      plain-text service counters and latency quantiles
//
// Each tenant owns one concurrent.Checker (the draco-concurrent mechanism,
// bitmap filter tier): one sharded SPT plus VAT per tenant, consulted before
// the filter. Profile uploads hot-swap the tenant's profile without dropping
// in-flight checks. The other registry engines are comparison points for the
// library, dracobench and the tests; an upload naming one is rejected.
//
// The server counts nothing per check: /metrics folds every tenant
// checker's Stats at scrape time and renders the aggregate and per-class
// series from that one fold, alongside the HTTP counters.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"sync"
	"time"

	"draco/internal/concurrent"
	"draco/internal/core"
	"draco/internal/seccomp"
	"draco/internal/syscalls"
)

// MaxBatch bounds the number of calls accepted in one /v1/check-batch
// request; it keeps a single request from monopolizing shard locks.
const MaxBatch = 4096

// maxBodyBytes bounds request bodies (profiles included).
const maxBodyBytes = 8 << 20

// DefaultEngine is the registry name of the one mechanism dracod serves. A
// profile upload may name it (or nothing); any other name is rejected.
const DefaultEngine = "draco-concurrent"

// Options configures a Server.
type Options struct {
	// Shards is the per-tenant VAT shard fan-out (0 =
	// concurrent.DefaultShards).
	Shards int
	// Routing selects the shard-routing key: "" or "syscall"
	// (decision-exact), or "args" (spread hot syscalls).
	Routing string
	// DefaultProfile, when non-nil, auto-provisions unknown tenants named
	// in check requests with this profile. When nil, tenants must upload a
	// profile before checking.
	DefaultProfile *seccomp.Profile
}

// Server is the dracod service state.
type Server struct {
	opts    Options
	metrics *Metrics

	mu      sync.RWMutex
	tenants map[string]*tenant
}

// tenant binds a name to its checker.
type tenant struct {
	name string
	chk  *concurrent.Checker
}

// New creates a server.
func New(opts Options) *Server {
	return &Server{
		opts:    opts,
		metrics: NewMetrics(),
		tenants: make(map[string]*tenant),
	}
}

// Metrics exposes the live counter set (for embedding programs).
func (s *Server) Metrics() *Metrics { return s.metrics }

// --- API documents ---------------------------------------------------------

// CheckRequest asks for one system call decision. The syscall is named
// either by Syscall (x86-64 name) or by Num; Args carries up to six
// argument values (missing ones are zero).
type CheckRequest struct {
	Tenant  string   `json:"tenant"`
	Syscall string   `json:"syscall,omitempty"`
	Num     *int     `json:"num,omitempty"`
	Args    []uint64 `json:"args,omitempty"`
}

// CheckResult is one decision.
type CheckResult struct {
	Allowed bool `json:"allowed"`
	Cached  bool `json:"cached"`
	// FilterInstructions is the number of BPF instructions executed when
	// the filter ran (zero on cache hits).
	FilterInstructions int `json:"filterInstructions"`
	// Action is the seccomp action string (e.g. "allow", "errno(1)").
	Action string `json:"action"`
}

// BatchCall is one call inside a batch request.
type BatchCall struct {
	Syscall string   `json:"syscall,omitempty"`
	Num     *int     `json:"num,omitempty"`
	Args    []uint64 `json:"args,omitempty"`
}

// BatchRequest checks many calls in one round trip.
type BatchRequest struct {
	Tenant string      `json:"tenant"`
	Calls  []BatchCall `json:"calls"`
}

// BatchResponse carries per-call results in request order.
type BatchResponse struct {
	Results []CheckResult `json:"results"`
}

// StatsResponse reports one tenant's checker state.
type StatsResponse struct {
	Tenant      string `json:"tenant"`
	Engine      string `json:"engine"`
	Profile     string `json:"profile"`
	Generation  uint64 `json:"generation"`
	Shards      int    `json:"shards"`
	Routing     string `json:"routing,omitempty"`
	Checks      uint64 `json:"checks"`
	SPTHits     uint64 `json:"sptHits"`
	VATHits     uint64 `json:"vatHits"`
	FilterRuns  uint64 `json:"filterRuns"`
	FilterInsns uint64 `json:"filterInstructions"`
	Inserts     uint64 `json:"inserts"`
	Denied      uint64 `json:"denied"`
	VATBytes    int    `json:"vatBytes"`
}

// ProfileResponse acknowledges a profile upload.
type ProfileResponse struct {
	Tenant     string `json:"tenant"`
	Engine     string `json:"engine"`
	Profile    string `json:"profile"`
	Generation uint64 `json:"generation"`
	Syscalls   int    `json:"syscalls"`
	// Created reports whether this upload provisioned a new tenant (false:
	// an existing tenant's profile was hot-swapped).
	Created bool `json:"created"`
}

// ErrorResponse is the JSON error envelope.
type ErrorResponse struct {
	Error string `json:"error"`
}

// --- handler ---------------------------------------------------------------

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/check", s.timed("check", s.handleCheck))
	mux.HandleFunc("POST /v1/check-batch", s.timed("check-batch", s.handleCheckBatch))
	mux.HandleFunc("PUT /v1/tenants/{id}/profile", s.timed("profile", s.handlePutProfile))
	mux.HandleFunc("GET /v1/tenants/{id}/stats", s.timed("stats", s.handleStats))
	mux.HandleFunc("GET /v1/tenants", s.timed("stats", s.handleListTenants))
	mux.HandleFunc("GET /metrics", s.timed("metrics", s.handleMetrics))
	return mux
}

func (s *Server) timed(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		h(w, r)
		s.metrics.ObserveRequest(endpoint, time.Since(start))
	}
}

// jsonCodec is a pooled buffer with its encoder pre-bound, so the JSON
// path reuses both across requests: encode into the buffer, write it in
// one call, instead of allocating encoder state per request and streaming
// straight to the socket (where an encode error would already have emitted
// a 200 header).
type jsonCodec struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonBufPool = sync.Pool{New: func() any {
	c := new(jsonCodec)
	c.enc = json.NewEncoder(&c.buf)
	return c
}}

// maxPooledJSONBuf caps what returns to the pool so one oversized response
// (a huge tenant listing) does not pin memory.
const maxPooledJSONBuf = 1 << 16

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	c := jsonBufPool.Get().(*jsonCodec)
	buf := &c.buf
	buf.Reset()
	if err := c.enc.Encode(v); err != nil {
		// An unencodable response document is a programming error; surface
		// it instead of silently truncating the body.
		s.metrics.EncodeErrors.Add(1)
		log.Printf("dracod: encoding %T response: %v", v, err)
		http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
		jsonBufPool.Put(c)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(buf.Bytes()); err != nil {
		// The peer went away mid-response; count it so operators can tell
		// socket write failures apart from handler errors.
		s.metrics.WriteErrors.Add(1)
		log.Printf("dracod: writing %T response: %v", v, err)
	}
	if buf.Cap() <= maxPooledJSONBuf {
		jsonBufPool.Put(c)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	s.metrics.HTTPErrors.Add(1)
	s.writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// newTenant builds a tenant's checker for p.
func (s *Server) newTenant(name string, p *seccomp.Profile) (*tenant, error) {
	routing, err := concurrent.ParseRouting(s.opts.Routing)
	if err != nil {
		return nil, err
	}
	chk, err := concurrent.NewCheckerConfig(p, concurrent.Config{
		Shards:  s.opts.Shards,
		Routing: routing,
		Mode:    seccomp.ExecBitmap,
	})
	if err != nil {
		return nil, err
	}
	return &tenant{name: name, chk: chk}, nil
}

// lookupTenant resolves a tenant for checking, auto-provisioning it with
// the default profile when one is configured.
func (s *Server) lookupTenant(name string) (*tenant, error) {
	if name == "" {
		return nil, fmt.Errorf("missing tenant")
	}
	s.mu.RLock()
	t := s.tenants[name]
	s.mu.RUnlock()
	if t != nil {
		return t, nil
	}
	if s.opts.DefaultProfile == nil {
		return nil, fmt.Errorf("unknown tenant %q (upload a profile first)", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t = s.tenants[name]; t == nil {
		var err error
		if t, err = s.newTenant(name, s.opts.DefaultProfile); err != nil {
			return nil, err
		}
		s.tenants[name] = t
	}
	return t, nil
}

// resolveCall turns a (syscall name, num, args) triple into a checker call.
func resolveCall(name string, num *int, args []uint64) (concurrent.Call, error) {
	var cl concurrent.Call
	switch {
	case name != "":
		in, ok := syscalls.ByName(name)
		if !ok {
			return cl, fmt.Errorf("unknown syscall %q", name)
		}
		if num != nil && *num != in.Num {
			return cl, fmt.Errorf("syscall %q is %d, not %d", name, in.Num, *num)
		}
		cl.SID = in.Num
	case num != nil:
		if *num < 0 || *num > syscalls.MaxNum() {
			return cl, fmt.Errorf("syscall number %d out of range [0,%d]", *num, syscalls.MaxNum())
		}
		cl.SID = *num
	default:
		return cl, fmt.Errorf("missing syscall name or number")
	}
	if len(args) > syscalls.MaxArgs {
		return cl, fmt.Errorf("%d args exceed the x86-64 maximum of %d", len(args), syscalls.MaxArgs)
	}
	copy(cl.Args[:], args)
	return cl, nil
}

func resultFrom(d core.Decision) CheckResult {
	return CheckResult{
		Allowed:            d.Allowed,
		Cached:             d.Cached,
		FilterInstructions: d.FilterInstructions,
		Action:             d.Action.String(),
	}
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	var req CheckRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, "parsing request: %v", err)
		return
	}
	t, err := s.lookupTenant(req.Tenant)
	if err != nil {
		s.writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	cl, err := resolveCall(req.Syscall, req.Num, req.Args)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	out := t.chk.Check(cl.SID, cl.Args)
	s.writeJSON(w, http.StatusOK, resultFrom(out.Decision()))
}

func (s *Server) handleCheckBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, "parsing request: %v", err)
		return
	}
	if len(req.Calls) > MaxBatch {
		s.writeError(w, http.StatusBadRequest, "batch of %d exceeds limit %d", len(req.Calls), MaxBatch)
		return
	}
	t, err := s.lookupTenant(req.Tenant)
	if err != nil {
		s.writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	calls := make([]concurrent.Call, len(req.Calls))
	for i, bc := range req.Calls {
		cl, err := resolveCall(bc.Syscall, bc.Num, bc.Args)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "call %d: %v", i, err)
			return
		}
		calls[i] = cl
	}
	outs := t.chk.CheckBatchDecisions(calls, nil)
	s.metrics.BatchCalls.Add(uint64(len(calls)))
	resp := BatchResponse{Results: make([]CheckResult, len(outs))}
	for i, d := range outs {
		resp.Results[i] = resultFrom(d)
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// putProfile uploads (or hot-swaps) a tenant's profile. It is the shared
// core of the HTTP handler and the wire and shm profile frames, which may
// name an engine: only "" and DefaultEngine are accepted.
func (s *Server) putProfile(id, engineName string, body io.Reader) (ProfileResponse, error) {
	if id == "" {
		return ProfileResponse{}, fmt.Errorf("missing tenant id")
	}
	if engineName != "" && engineName != DefaultEngine {
		return ProfileResponse{}, fmt.Errorf("unknown engine %q (dracod serves only %s)", engineName, DefaultEngine)
	}
	p, err := seccomp.ReadJSON(body, id)
	if err != nil {
		return ProfileResponse{}, err
	}

	s.mu.Lock()
	t := s.tenants[id]
	created := t == nil
	if created {
		if t, err = s.newTenant(id, p); err == nil {
			s.tenants[id] = t
		}
	}
	s.mu.Unlock()
	if err != nil {
		return ProfileResponse{}, err
	}
	// An existing tenant swaps outside the registry lock: SetProfile
	// compiles filters per shard, and in-flight checks must keep flowing
	// meanwhile.
	if !created {
		if err := t.chk.SetProfile(p); err != nil {
			return ProfileResponse{}, err
		}
	}
	s.metrics.ProfileSwaps.Add(1)
	return ProfileResponse{
		Tenant:     id,
		Engine:     DefaultEngine,
		Profile:    p.Name,
		Generation: t.chk.Generation(),
		Syscalls:   p.NumSyscalls(),
		Created:    created,
	}, nil
}

func (s *Server) handlePutProfile(w http.ResponseWriter, r *http.Request) {
	resp, err := s.putProfile(r.PathValue("id"), r.URL.Query().Get("engine"), r.Body)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) statsFor(t *tenant) StatsResponse {
	st := t.chk.Stats()
	return StatsResponse{
		Tenant:      t.name,
		Engine:      DefaultEngine,
		Profile:     t.chk.Profile().Name,
		Generation:  t.chk.Generation(),
		Shards:      t.chk.Shards(),
		Routing:     t.chk.Routing().String(),
		Checks:      st.Checks,
		SPTHits:     st.SPTHits,
		VATHits:     st.VATHits,
		FilterRuns:  st.FilterRuns,
		FilterInsns: st.FilterInsns,
		Inserts:     st.Inserts,
		Denied:      st.Denied,
		VATBytes:    t.chk.VATBytes(),
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.RLock()
	t := s.tenants[id]
	s.mu.RUnlock()
	if t == nil {
		s.writeError(w, http.StatusNotFound, "unknown tenant %q", id)
		return
	}
	s.writeJSON(w, http.StatusOK, s.statsFor(t))
}

func (s *Server) handleListTenants(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	names := make([]string, 0, len(s.tenants))
	for n := range s.tenants {
		names = append(names, n)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	s.writeJSON(w, http.StatusOK, map[string][]string{"tenants": names})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	tenants := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		tenants = append(tenants, t)
	}
	s.mu.RUnlock()
	totals := checkerTotals{Tenants: len(tenants)}
	for _, t := range tenants {
		totals.Stats.Add(t.chk.Stats())
		totals.VATBytes += t.chk.VATBytes()
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.metrics.WriteTo(w, totals)
}
