package client

// Transport is the client-side face of the session layer: one interface
// over both ways a check reaches dracod — the TCP wire protocol (Wire) and
// shared-memory rings (Shm). Code written against Transport — the
// contract benchmark, replay, tests — runs unchanged over either.

import (
	"context"

	"draco/internal/engine"
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
)
