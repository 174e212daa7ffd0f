// Package server implements dracod: a multi-tenant syscall-check service
// over Draco's concurrent checker.
//
// Checks travel only over the binary edges, the TCP wire protocol and the
// shared-memory rings, through the one session layer (session.go). HTTP is
// the control plane, a stdlib-only JSON API:
//
//	PUT  /v1/tenants/{id}/profile      upload a Docker-format JSON profile (hot swap)
//	GET  /v1/tenants/{id}/stats        per-tenant checker statistics
//	GET  /v1/tenants                   list provisioned tenants
//	GET  /metrics                      plain-text service counters and latency quantiles
//
// Each tenant owns one concurrent.Checker (the draco-concurrent mechanism,
// bitmap filter tier): one SPT plus VAT per profile generation, consulted
// before the filter. Profile uploads hot-swap the tenant's profile without dropping
// in-flight checks. The other registry engine, filter-only, is the uncached
// baseline for the library, the benchmarks and the tests; an upload naming
// it is rejected.
//
// The server counts nothing per check: /metrics folds every tenant
// checker's Stats at scrape time and renders the aggregate and per-class
// series from that one fold, alongside the HTTP counters.
package server

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"sync"
	"time"

	"draco/internal/concurrent"
	"draco/internal/seccomp"
)

// maxBodyBytes bounds HTTP request bodies, which only profile uploads carry.
const maxBodyBytes = 8 << 20

// DefaultEngine is the registry name of the one mechanism dracod serves. A
// profile upload may name it (or nothing); any other name is rejected.
const DefaultEngine = "draco-concurrent"

// Options configures a Server.
type Options struct {
	// Shards is ignored: a tenant's checker does not shard its tables.
	//
	// Deprecated: kept only for the contract benchmark, which still sets
	// it; it goes with ROADMAP item 1(a).
	Shards int
	// Routing is ignored, like Shards.
	//
	// Deprecated: see Shards.
	Routing string
	// DefaultProfile, when non-nil, auto-provisions unknown tenants named
	// in wire or shm check frames with this profile. When nil, tenants must
	// upload a profile before checking.
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

// StatsResponse reports one tenant's checker state.
type StatsResponse struct {
	Tenant      string `json:"tenant"`
	Engine      string `json:"engine"`
	Profile     string `json:"profile"`
	Generation  uint64 `json:"generation"`
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

// Handler returns the control plane's HTTP handler. It serves no checks.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /v1/tenants/{id}/profile", s.timed("profile", s.handlePutProfile))
	mux.HandleFunc("GET /v1/tenants/{id}/stats", s.timed("stats", s.handleStats))
	mux.HandleFunc("GET /v1/tenants", s.timed("tenants", s.handleListTenants))
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

// encodeJSON marshals a response document. An unencodable document is a
// programming error: it is counted and logged, and the caller answers with
// an error instead of a silently truncated body. The HTTP handlers and the
// session's control frames share it.
func (s *Server) encodeJSON(v any) ([]byte, bool) {
	b, err := json.Marshal(v)
	if err != nil {
		s.metrics.EncodeErrors.Add(1)
		log.Printf("dracod: encoding %T response: %v", v, err)
		return nil, false
	}
	return b, true
}

// writeJSON answers with v. Encoding finishes before the status line is
// written, so an encode failure is still a 500.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	body, ok := s.encodeJSON(v)
	if !ok {
		http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(append(body, '\n')); err != nil {
		// The peer went away mid-response; count it so operators can tell
		// socket write failures apart from handler errors.
		s.metrics.WriteErrors.Add(1)
		log.Printf("dracod: writing %T response: %v", v, err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	s.metrics.HTTPErrors.Add(1)
	s.writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// newTenant builds a tenant's checker for p.
func (s *Server) newTenant(name string, p *seccomp.Profile) (*tenant, error) {
	chk, err := concurrent.NewCheckerConfig(p, concurrent.Config{})
	if err != nil {
		return nil, err
	}
	return &tenant{name: name, chk: chk}, nil
}

// provisionTenant resolves a check's tenant that the registry did not
// hold: it auto-provisions the tenant with the default profile when one is
// configured (or returns the one a racing check provisioned first), and
// fails otherwise.
func (s *Server) provisionTenant(name string) (*tenant, error) {
	switch {
	case name == "":
		return nil, fmt.Errorf("missing tenant")
	case s.opts.DefaultProfile == nil:
		return nil, fmt.Errorf("unknown tenant %q (upload a profile first)", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tenants[name]
	if t == nil {
		var err error
		if t, err = s.newTenant(name, s.opts.DefaultProfile); err != nil {
			return nil, err
		}
		s.tenants[name] = t
	}
	return t, nil
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
	// compiles the filter and the decision plane, and in-flight checks must
	// keep flowing meanwhile.
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

// stats reports a provisioned tenant's checker state. It is the shared core
// of the HTTP handler and the wire and shm stats frames.
func (s *Server) stats(name string) (StatsResponse, error) {
	s.mu.RLock()
	t := s.tenants[name]
	s.mu.RUnlock()
	if t == nil {
		return StatsResponse{}, fmt.Errorf("unknown tenant %q", name)
	}
	st := t.chk.Stats()
	return StatsResponse{
		Tenant:      t.name,
		Engine:      DefaultEngine,
		Profile:     t.chk.Profile().Name,
		Generation:  t.chk.Generation(),
		Checks:      st.Checks,
		SPTHits:     st.SPTHits,
		VATHits:     st.VATHits,
		FilterRuns:  st.FilterRuns,
		FilterInsns: st.FilterInsns,
		Inserts:     st.Inserts,
		Denied:      st.Denied,
		VATBytes:    t.chk.VATBytes(),
	}, nil
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp, err := s.stats(r.PathValue("id"))
	if err != nil {
		s.writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
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
