package server_test

import (
	"bytes"
	"context"
	"math"
	"slices"
	"testing"

	"draco/internal/concurrent"
	"draco/internal/engine"
	"draco/internal/seccomp"
	"draco/internal/server"
	"draco/internal/server/client"
)

// oddSyscallNums are numbers no x86-64 syscall has: negative, past the
// table, and at both ends of the wire's int32 field.
var oddSyscallNums = []int{-1, math.MinInt32, 400, 1023, 1 << 20, math.MaxInt32}

// TestOddSyscallNumbers pins what a check of a number outside the syscall
// table means on every edge that carries checks: the session hands it to
// the tenant's checker, which denies it. Each number goes as a single check
// and inside a batch, over wire and over shm, under a plain and a
// programmable profile. Every decision equals an in-process checker of the
// server's configuration fed the same calls, and the connection answers a
// normal read afterwards.
func TestOddSyscallNumbers(t *testing.T) {
	profiles := map[string][]byte{
		"docker-default": profileJSON(t, seccomp.DockerDefault()),
		"rate-limit":     examplePolicy(t, "rate-limit.json"),
	}
	edges := map[string]func(t *testing.T) client.Transport{
		"wire": func(t *testing.T) client.Transport {
			_, wc := newWireServer(t, server.Options{}, client.WireOptions{Conns: 1})
			return wc
		},
		"shm": func(t *testing.T) client.Transport {
			_, sc := newShmServer(t, server.Options{}, client.ShmOptions{})
			return sc
		},
	}
	read := engine.Call{SID: sidOf(t, "read"), Args: engine.Args{3, 0, 4096}}
	for edge, dial := range edges {
		for prof, raw := range profiles {
			t.Run(edge+"/"+prof, func(t *testing.T) {
				tr := dial(t)
				ctx := context.Background()
				if _, err := tr.PutProfile(ctx, prof, "", raw); err != nil {
					t.Fatal(err)
				}
				p, err := seccomp.ReadJSON(bytes.NewReader(raw), prof)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := concurrent.NewCheckerConfig(p, concurrent.Config{})
				if err != nil {
					t.Fatal(err)
				}
				refCheck := func(c engine.Call) engine.Decision {
					out := ref.Check(c.SID, c.Args)
					return out.Decision()
				}
				for _, n := range oddSyscallNums {
					odd := engine.Call{SID: n, Args: engine.Args{1, 2, 3}}
					d, err := tr.Check(ctx, prof, odd.SID, odd.Args)
					if err != nil {
						t.Fatalf("check %d: %v", n, err)
					}
					if want := refCheck(odd); d != want || d.Allowed {
						t.Fatalf("check %d: %+v, in-process %+v (want denied)", n, d, want)
					}

					batch := []engine.Call{read, odd, read}
					ds, err := tr.CheckBatch(ctx, prof, batch, nil)
					if err != nil {
						t.Fatalf("batch with %d: %v", n, err)
					}
					if want := ref.CheckBatchDecisions(batch, nil); !slices.Equal(ds, want) || ds[1].Allowed {
						t.Fatalf("batch with %d: %+v, in-process %+v (want the odd call denied)", n, ds, want)
					}

					d, err = tr.Check(ctx, prof, read.SID, read.Args)
					if err != nil {
						t.Fatalf("read after %d: %v", n, err)
					}
					if want := refCheck(read); d != want || !d.Allowed {
						t.Fatalf("read after %d: %+v, in-process %+v (want allowed)", n, d, want)
					}
				}
			})
		}
	}
}
