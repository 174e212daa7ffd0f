package server_test

// In-tree benchmarks for the two ways a caller gets its completion off the
// shm rings (`make bench-server`): alone on the connection it always holds
// the reap role and polls the completion ring itself; with other callers
// on the same connection it is mostly a follower, woken through the call
// table by whichever caller is reaping, and promoted when that one leaves.

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"

	"draco/internal/engine"
	"draco/internal/seccomp"
	"draco/internal/server"
	"draco/internal/server/client"
)

// benchShmArgs is how many distinct argument sets the benchmarks cycle
// through, all warmed before the timer starts.
const benchShmArgs = 64

// warmShmConn dials a fresh shm front end and warms the tenant, returning
// the check the benchmarks time.
func warmShmConn(b *testing.B) func(i uint64) error {
	_, sc := newShmServer(b,
		server.Options{DefaultProfile: seccomp.DockerDefault()},
		client.ShmOptions{})
	ctx := context.Background()
	read := sidOf(b, "read")
	check := func(i uint64) error {
		_, err := sc.Check(ctx, "t", read, engine.Args{3, 0, i % benchShmArgs})
		return err
	}
	for i := uint64(0); i < 2*benchShmArgs; i++ {
		if err := check(i); err != nil {
			b.Fatal(err)
		}
	}
	return check
}

// BenchmarkShmCheck is one caller on the connection: always the leader.
func BenchmarkShmCheck(b *testing.B) {
	check := warmShmConn(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := check(uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShmCheckBatch64 is one caller sending 64 calls per round trip:
// the crossing is amortised, so what is timed is the batch codec on both
// sides plus the engine's CheckBatch. ns/op is per 64-call request.
func BenchmarkShmCheckBatch64(b *testing.B) {
	_, sc := newShmServer(b,
		server.Options{DefaultProfile: seccomp.DockerDefault()},
		client.ShmOptions{})
	ctx := context.Background()
	calls := make([]engine.Call, 64)
	for i := range calls {
		calls[i] = engine.Call{SID: sidOf(b, []string{"read", "write", "close", "fstat"}[i%4]), Args: engine.Args{3, 0, uint64(i)}}
	}
	var dst []engine.Decision
	var err error
	for i := 0; i < 2; i++ {
		if dst, err = sc.CheckBatch(ctx, "t", calls, dst); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dst, err = sc.CheckBatch(ctx, "t", calls, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShmCheckParallel is eight callers on one connection: the
// follower and promotion path.
func BenchmarkShmCheckParallel(b *testing.B) {
	check := warmShmConn(b)
	const callers = 8
	procs := runtime.GOMAXPROCS(0)
	b.SetParallelism((callers + procs - 1) / procs)
	var cursor atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := cursor.Add(1) * 7919; pb.Next(); i++ {
			if err := check(i); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
