package client

// Transport is the client-side face of the session layer: one interface
// over every way of reaching a dracod — HTTP (Client via HTTPTransport),
// the TCP wire protocol (Wire), shared-memory rings (Shm), and the
// client-side aggregator (Batcher, which wraps any of them). Code written
// against Transport — the loadgen driver, replay, tests — runs unchanged
// over all four.

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"

	"draco/internal/engine"
	"draco/internal/seccomp"
	"draco/internal/server"
)

// Transport issues checks and control operations against one dracod,
// independent of how the bytes get there. Implementations must be safe
// for concurrent use.
type Transport interface {
	// Check validates a single system call.
	Check(ctx context.Context, tenant string, sid int, args engine.Args) (engine.Decision, error)
	// CheckBatch validates calls in one request, reusing dst when it has
	// capacity.
	CheckBatch(ctx context.Context, tenant string, calls []engine.Call, dst []engine.Decision) ([]engine.Decision, error)
	// PutProfile uploads or hot-swaps the tenant's policy. engineName must
	// be "" or server.DefaultEngine, the one engine dracod serves.
	PutProfile(ctx context.Context, tenant, engineName string, profileJSON []byte) (server.ProfileResponse, error)
	// Stats fetches the tenant's checker statistics.
	Stats(ctx context.Context, tenant string) (server.StatsResponse, error)
	// Close releases the transport's connections.
	Close() error
}

var (
	_ Transport = (*Wire)(nil)
	_ Transport = (*Shm)(nil)
	_ Transport = (*Batcher)(nil)
	_ Transport = (*HTTPTransport)(nil)
)

// HTTPTransport adapts the JSON/HTTP Client to the Transport interface.
type HTTPTransport struct{ C *Client }

// Check issues one /v1/check request.
func (t *HTTPTransport) Check(ctx context.Context, tenant string, sid int, args engine.Args) (engine.Decision, error) {
	num := sid
	res, err := t.C.Check(ctx, server.CheckRequest{Tenant: tenant, Num: &num, Args: args[:]})
	if err != nil {
		return engine.Decision{}, err
	}
	return decisionFrom(res), nil
}

// CheckBatch issues one /v1/check/batch request.
func (t *HTTPTransport) CheckBatch(ctx context.Context, tenant string, calls []engine.Call, dst []engine.Decision) ([]engine.Decision, error) {
	req := server.BatchRequest{Tenant: tenant, Calls: make([]server.BatchCall, len(calls))}
	nums := make([]int, len(calls))
	for i, c := range calls {
		nums[i] = c.SID
		req.Calls[i] = server.BatchCall{Num: &nums[i], Args: c.Args[:]}
	}
	res, err := t.C.CheckBatch(ctx, req)
	if err != nil {
		return nil, err
	}
	dst = dst[:0]
	for _, r := range res {
		dst = append(dst, decisionFrom(r))
	}
	return dst, nil
}

// PutProfile uploads a profile via the REST endpoint, which names no
// engine: any engineName other than the served one is refused here.
func (t *HTTPTransport) PutProfile(ctx context.Context, tenant, engineName string, profileJSON []byte) (server.ProfileResponse, error) {
	if engineName != "" && engineName != server.DefaultEngine {
		return server.ProfileResponse{}, fmt.Errorf("unknown engine %q (dracod serves only %s)", engineName, server.DefaultEngine)
	}
	return t.C.PutProfile(ctx, tenant, bytes.NewReader(profileJSON))
}

// Stats fetches tenant statistics via the REST endpoint.
func (t *HTTPTransport) Stats(ctx context.Context, tenant string) (server.StatsResponse, error) {
	return t.C.Stats(ctx, tenant)
}

// Close is a no-op: the HTTP client owns no persistent connections beyond
// its pooled http.Transport.
func (t *HTTPTransport) Close() error { return nil }

// decisionFrom maps a JSON check result back onto the engine's decision,
// reversing resultFrom's Action.String() rendering.
func decisionFrom(r server.CheckResult) engine.Decision {
	return engine.Decision{
		Allowed:            r.Allowed,
		Cached:             r.Cached,
		FilterInstructions: r.FilterInstructions,
		Action:             parseAction(r.Action),
	}
}

// parseAction inverts seccomp.Action.String().
func parseAction(s string) seccomp.Action {
	switch s {
	case "allow":
		return seccomp.ActAllow
	case "log":
		return seccomp.ActLog
	case "trap":
		return seccomp.ActTrap
	case "kill_process":
		return seccomp.ActKillProcess
	case "kill_thread":
		return seccomp.ActKillThread
	}
	if rest, ok := strings.CutPrefix(s, "errno("); ok {
		if n, err := strconv.ParseUint(strings.TrimSuffix(rest, ")"), 10, 16); err == nil {
			return seccomp.Errno(uint16(n))
		}
	}
	if rest, ok := strings.CutPrefix(s, "action("); ok {
		if n, err := strconv.ParseUint(strings.TrimSuffix(rest, ")"), 0, 32); err == nil {
			return seccomp.Action(n)
		}
	}
	return seccomp.ActKillThread
}
