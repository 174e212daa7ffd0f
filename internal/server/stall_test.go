package server_test

// The isolation guarantee of the session layer: a connection's responses
// are written only by its own dispatch goroutine, so a peer that stops
// taking them stalls itself and nobody else. scripts/check.sh runs this
// under -race.

import (
	"bytes"
	"context"
	"net"
	"os"
	"testing"
	"time"

	"draco/internal/engine"
	"draco/internal/seccomp"
	"draco/internal/server"
	"draco/internal/server/client"
	"draco/internal/wire"
)

// TestStalledPeerDoesNotDelayOthers pipelines checks on one connection that
// never takes a response, while a second connection on the same tenant
// issues sequential checks throughout. The healthy connection must keep
// completing them while the peer fills up and after it has stalled. A
// third leg stalls the peer differently: it claims a submission slot and
// never publishes it, so the server's consumer waits on the hole.
func TestStalledPeerDoesNotDelayOthers(t *testing.T) {
	const tenant = "shared"
	opts := server.Options{DefaultProfile: seccomp.DockerDefault()}
	call := engine.Call{SID: sidOf(t, "read"), Args: engine.Args{3, 0, 4096}}

	// healthy drives the second connection: sequential checks until
	// afterStall of them have completed with the peer already stalled.
	// stalled is polled between checks with the count completed so far.
	healthy := func(t *testing.T, tr client.Transport, stalled func(completed int) bool) {
		t.Helper()
		const afterStall = 500
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		for n, after := 0, 0; after < afterStall; {
			if _, err := tr.Check(ctx, tenant, call.SID, call.Args); err != nil {
				t.Fatalf("healthy connection: check %d (%d after the peer stalled): %v", n, after, err)
			}
			n++
			if stalled(n) {
				after++
			}
		}
	}

	t.Run("wire", func(t *testing.T) {
		_, addr := startWireServer(t, opts)
		peer, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer peer.Close()
		// The peer writes check frames as fast as the server takes them and
		// never reads. Once its responses have filled the socket buffers the
		// server's reader for it blocks, stops reading, and a write here
		// makes no progress within the deadline: that is the stall.
		stalled := make(chan struct{})
		go func() {
			defer close(stalled)
			var block bytes.Buffer
			bw := wire.NewWriter(&block)
			payload := wire.AppendCheckReq(nil, tenant, call)
			for i := 0; i < 256; i++ {
				bw.SendBuffered(wire.TypeCheckReq, uint64(i), payload)
			}
			bw.Flush()
			for {
				peer.SetWriteDeadline(time.Now().Add(500 * time.Millisecond))
				if _, err := peer.Write(block.Bytes()); err != nil {
					return
				}
			}
		}()

		wc, err := client.DialWire(addr, client.WireOptions{Conns: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer wc.Close()
		healthy(t, wc, func(int) bool {
			select {
			case <-stalled:
				return true
			default:
				return false
			}
		})
	})

	t.Run("shm", func(t *testing.T) {
		srv, ss := newShmServerOnly(t, opts)
		// The peer fills its submission ring and never reaps: the server
		// answers completeSlots frames, takes one more, and its consumer
		// for this ring blocks publishing that answer.
		const submitSlots, completeSlots = 64, 8
		peer := dialRawShm(t, ss.Dir(), submitSlots, completeSlots)
		for i := 0; i < submitSlots; i++ {
			if err := peer.submit(uint64(i), tenant, call); err != nil {
				t.Fatal(err)
			}
		}

		sc, err := client.DialShm(ss.Dir(), client.ShmOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		// Between the healthy connection's sequential checks, the frames the
		// server has consumed beyond them are the peer's.
		healthy(t, sc, func(completed int) bool {
			return srv.Metrics().ShmFrames.Load()-uint64(completed) > completeSlots
		})
	})

	t.Run("shm-hole", func(t *testing.T) {
		srv, ss := newShmServerOnly(t, opts)
		// The peer claims a slot and never publishes it, then publishes the
		// next one behind the hole: its frame can never be consumed.
		peer := dialRawShm(t, ss.Dir(), 0, 0)
		if pos, buf := peer.reg.Submit.Claim(); buf == nil {
			t.Fatalf("claim at %d: ring closed", pos)
		}
		if err := peer.submit(1, tenant, call); err != nil {
			t.Fatal(err)
		}

		sc, err := client.DialShm(ss.Dir(), client.ShmOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		healthy(t, sc, func(int) bool { return true })

		// Closing the peer's socket must release its region although its
		// consumer is waiting on the hole.
		m := srv.Metrics()
		active := m.ShmConnsActive.Load()
		peer.nc.Close()
		deadline := time.Now().Add(2 * time.Second)
		for {
			_, statErr := os.Stat(peer.path)
			gone := os.IsNotExist(statErr)
			if gone && m.ShmConnsActive.Load() == active-1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("2s after the peer closed: region unlinked %v, active conns %d (was %d)",
					gone, m.ShmConnsActive.Load(), active)
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}
