// Package server implements dracod's HTTP serving layer: a stdlib-only JSON
// API that exposes the registered Draco check engines as a long-running,
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
// Each tenant owns one engine.Engine selected by registry name, so the HTTP
// surface can A/B mechanisms apples-to-apples: pass ?engine=<name> on a
// profile upload (or on the check that auto-provisions a tenant) to pick one
// of engine.Names(); the default is draco-concurrent. Engines whose registry
// entry is not concurrency-safe are wrapped with engine.Synchronized.
// Profile uploads hot-swap the tenant's profile without dropping in-flight
// checks; uploading with a different ?engine= rebuilds the tenant on the new
// mechanism (statistics and generation restart).
//
// The server counts nothing per check: /metrics folds every tenant engine's
// Stats at scrape time (plus the totals of engines a mechanism switch
// closed) and renders the aggregate, per-class and per-engine series from
// that one fold, alongside the HTTP counters.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"draco/internal/engine"
	"draco/internal/seccomp"
	"draco/internal/syscalls"
)

// MaxBatch bounds the number of calls accepted in one /v1/check-batch
// request; it keeps a single request from monopolizing shard locks.
const MaxBatch = 4096

// maxBodyBytes bounds request bodies (profiles included).
const maxBodyBytes = 8 << 20

// DefaultEngine is the engine used for tenants that never named one.
const DefaultEngine = "draco-concurrent"

// Options configures a Server.
type Options struct {
	// Shards is the per-tenant VAT shard fan-out for sharded engines
	// (0 = the engine's default).
	Shards int
	// Routing selects the shard-routing key for sharded engines:
	// "" or "syscall" (decision-exact), or "args" (spread hot syscalls).
	Routing string
	// DefaultEngine names the registry engine for tenants that do not pass
	// ?engine= ("" = DefaultEngine).
	DefaultEngine string
	// DefaultProfile, when non-nil, auto-provisions unknown tenants named
	// in check requests with this profile. When nil, tenants must upload a
	// profile before checking.
	DefaultProfile *seccomp.Profile
	// BPFExec selects the filter execution tier for every tenant engine:
	// "" or "bitmap" (compiled + constant-action bitmap, the default),
	// "compiled", or "interp" (the escape hatch).
	BPFExec string
}

// Server is the dracod service state.
type Server struct {
	opts    Options
	metrics *Metrics

	mu      sync.RWMutex
	tenants map[string]*tenant

	// retired sums, per registry name, the Stats of engines a mechanism
	// switch closed, so the /metrics totals never go backwards. retireMu
	// covers the switch (rebinding the tenant and folding the outgoing
	// engine) and the scrape, which therefore sees each engine exactly once:
	// live or retired.
	retireMu sync.Mutex
	retired  map[string]engine.Stats
}

// binding is a tenant's engine and the registry name it was built under.
type binding struct {
	name string
	eng  engine.Engine
}

// tenant binds a name to its engine. A profile upload that changes
// mechanisms swaps the whole binding, so one load yields a matching pair.
type tenant struct {
	name string
	cur  atomic.Pointer[binding]
}

func newTenant(name, engName string, e engine.Engine) *tenant {
	t := &tenant{name: name}
	t.cur.Store(&binding{name: engName, eng: e})
	return t
}

func (t *tenant) engine() engine.Engine { return t.cur.Load().eng }

// New creates a server.
func New(opts Options) *Server {
	return &Server{
		opts:    opts,
		metrics: NewMetrics(),
		tenants: make(map[string]*tenant),
		retired: make(map[string]engine.Stats),
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

// resolveEngineName applies the default chain and validates against the
// registry.
func (s *Server) resolveEngineName(requested string) (string, error) {
	name := requested
	if name == "" {
		name = s.opts.DefaultEngine
	}
	if name == "" {
		name = DefaultEngine
	}
	if _, ok := engine.Lookup(name); !ok {
		return "", fmt.Errorf("unknown engine %q (have %s)", name, strings.Join(engine.Names(), ", "))
	}
	return name, nil
}

// newEngine builds one tenant engine and wraps mechanisms that are not
// concurrency-safe. No observer is attached: the engine's own Stats carry
// everything /metrics renders.
func (s *Server) newEngine(name string, p *seccomp.Profile) (engine.Engine, error) {
	e, err := engine.New(name, engine.Options{
		Profile: p,
		Shards:  s.opts.Shards,
		Routing: s.opts.Routing,
		BPFExec: s.opts.BPFExec,
	})
	if err != nil {
		return nil, err
	}
	return engine.Synchronized(e), nil
}

// lookupTenant resolves a tenant for checking, auto-provisioning it with
// the default profile when one is configured. engineName, when non-empty,
// selects the engine for auto-provisioning and must match an existing
// tenant's engine.
func (s *Server) lookupTenant(name, engineName string) (*tenant, error) {
	if name == "" {
		return nil, fmt.Errorf("missing tenant")
	}
	s.mu.RLock()
	t := s.tenants[name]
	s.mu.RUnlock()
	if t == nil {
		if s.opts.DefaultProfile == nil {
			return nil, fmt.Errorf("unknown tenant %q (upload a profile first)", name)
		}
		eng, err := s.resolveEngineName(engineName)
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if t = s.tenants[name]; t == nil {
			e, err := s.newEngine(eng, s.opts.DefaultProfile)
			if err != nil {
				return nil, err
			}
			t = newTenant(name, eng, e)
			s.tenants[name] = t
		}
	}
	if runs := t.cur.Load().name; engineName != "" && engineName != runs {
		return nil, fmt.Errorf("tenant %q runs engine %q, not %q (switch engines by re-uploading the profile with ?engine=)",
			name, runs, engineName)
	}
	return t, nil
}

// resolveCall turns a (syscall name, num, args) triple into an engine call.
func resolveCall(name string, num *int, args []uint64) (engine.Call, error) {
	var cl engine.Call
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

func resultFrom(d engine.Decision) CheckResult {
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
	t, err := s.lookupTenant(req.Tenant, r.URL.Query().Get("engine"))
	if err != nil {
		s.writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	cl, err := resolveCall(req.Syscall, req.Num, req.Args)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.writeJSON(w, http.StatusOK, resultFrom(t.engine().Check(cl.SID, cl.Args)))
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
	t, err := s.lookupTenant(req.Tenant, r.URL.Query().Get("engine"))
	if err != nil {
		s.writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	calls := make([]engine.Call, len(req.Calls))
	for i, bc := range req.Calls {
		cl, err := resolveCall(bc.Syscall, bc.Num, bc.Args)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "call %d: %v", i, err)
			return
		}
		calls[i] = cl
	}
	outs := t.engine().CheckBatch(calls, nil)
	s.metrics.BatchCalls.Add(uint64(len(calls)))
	resp := BatchResponse{Results: make([]CheckResult, len(outs))}
	for i, d := range outs {
		resp.Results[i] = resultFrom(d)
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// putProfile uploads (or hot-swaps) a tenant's profile. It is the shared
// core of the HTTP handler and the wire front end's profile frames.
func (s *Server) putProfile(id, requested string, body io.Reader) (ProfileResponse, error) {
	if id == "" {
		return ProfileResponse{}, fmt.Errorf("missing tenant id")
	}
	if requested != "" {
		if _, ok := engine.Lookup(requested); !ok {
			return ProfileResponse{}, fmt.Errorf("unknown engine %q (have %s)", requested, strings.Join(engine.Names(), ", "))
		}
	}
	p, err := seccomp.ReadJSON(body, id)
	if err != nil {
		return ProfileResponse{}, err
	}

	s.mu.Lock()
	t := s.tenants[id]
	created := t == nil
	if created {
		eng, err := s.resolveEngineName(requested)
		if err != nil {
			s.mu.Unlock()
			return ProfileResponse{}, err
		}
		e, err := s.newEngine(eng, p)
		if err != nil {
			s.mu.Unlock()
			return ProfileResponse{}, err
		}
		t = newTenant(id, eng, e)
		s.tenants[id] = t
		s.mu.Unlock()
	} else {
		// Swap outside the registry lock: SetProfile compiles filters per
		// shard, and in-flight checks must keep flowing meanwhile.
		s.mu.Unlock()
		if requested != "" && requested != t.cur.Load().name {
			// Mechanism switch: rebuild the tenant on the new engine. The
			// old engine keeps serving in-flight checks until the swap.
			e, err := s.newEngine(requested, p)
			if err != nil {
				return ProfileResponse{}, err
			}
			s.rebind(t, &binding{name: requested, eng: e})
		} else if err := t.engine().SetProfile(p); err != nil {
			return ProfileResponse{}, err
		}
	}
	s.metrics.ProfileSwaps.Add(1)
	b := t.cur.Load()
	return ProfileResponse{
		Tenant:     id,
		Engine:     b.name,
		Profile:    p.Name,
		Generation: b.eng.Describe().Generation,
		Syscalls:   p.NumSyscalls(),
		Created:    created,
	}, nil
}

// rebind moves t to next and folds the binding it displaced into the retired
// totals, both under retireMu, then closes the old engine. A check still in
// flight on the old engine when its Stats are read is served but not
// counted.
func (s *Server) rebind(t *tenant, next *binding) {
	s.retireMu.Lock()
	old := t.cur.Swap(next)
	total := s.retired[old.name]
	total.Add(old.eng.Stats())
	s.retired[old.name] = total
	s.retireMu.Unlock()
	old.eng.Close()
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
	e := t.engine()
	st := e.Stats()
	d := e.Describe()
	return StatsResponse{
		Tenant:      t.name,
		Engine:      d.Engine,
		Profile:     d.Profile,
		Generation:  d.Generation,
		Shards:      d.Shards,
		Routing:     d.Routing,
		Checks:      st.Checks,
		SPTHits:     st.SPTHits,
		VATHits:     st.VATHits,
		FilterRuns:  st.FilterRuns,
		FilterInsns: st.FilterInsns,
		Inserts:     st.Inserts,
		Denied:      st.Denied,
		VATBytes:    e.VATBytes(),
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
	totals := checkerTotals{ByEngine: make(map[string]*engineTotals)}
	for _, name := range engine.Names() {
		totals.ByEngine[name] = &engineTotals{}
	}
	s.retireMu.Lock()
	for name, st := range s.retired {
		totals.ByEngine[name].Stats = st
	}
	for _, t := range tenants {
		b := t.cur.Load()
		et := totals.ByEngine[b.name]
		et.Tenants++
		et.Stats.Add(b.eng.Stats())
		totals.VATBytes += b.eng.VATBytes()
	}
	s.retireMu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.metrics.WriteTo(w, totals)
}
