package server_test

import (
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkLoopbackFloor is the floor under the wire edge: a bare TCP
// loopback ping-pong in one process, a 48-byte request answered by a
// 24-byte reply with TCP_NODELAY, and no framing, coalescer or engine.
// callers=1 is one caller on one connection; callers=2 is two callers on
// their own connections, which is how the `wire-single` workload drives
// dracod. ns/op is wall time per round trip over all callers, and p50-ns
// is the median latency of one round trip.
func BenchmarkLoopbackFloor(b *testing.B) {
	for _, callers := range []int{1, 2} {
		b.Run(fmt.Sprintf("callers=%d", callers), func(b *testing.B) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer ln.Close()
			// Each caller's connection gets its own echo goroutine, which
			// exits when the caller closes the connection.
			var served sync.WaitGroup
			conns := make([]net.Conn, callers)
			defer func() {
				for _, c := range conns {
					if c != nil {
						c.Close()
					}
				}
				served.Wait()
			}()
			for i := range conns {
				if conns[i], err = net.Dial("tcp", ln.Addr().String()); err != nil {
					b.Fatal(err)
				}
				conns[i].(*net.TCPConn).SetNoDelay(true)
				srv, err := ln.Accept()
				if err != nil {
					b.Fatal(err)
				}
				srv.(*net.TCPConn).SetNoDelay(true)
				served.Add(1)
				go func() {
					defer served.Done()
					defer srv.Close()
					var req [48]byte
					var resp [24]byte
					for {
						if _, err := io.ReadFull(srv, req[:]); err != nil {
							return
						}
						if _, err := srv.Write(resp[:]); err != nil {
							return
						}
					}
				}()
			}
			lat := make([]time.Duration, b.N)
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for _, c := range conns {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var req [48]byte
					var resp [24]byte
					for i := next.Add(1) - 1; i < int64(b.N); i = next.Add(1) - 1 {
						t0 := time.Now()
						if _, err := c.Write(req[:]); err != nil {
							b.Error(err)
							return
						}
						if _, err := io.ReadFull(c, resp[:]); err != nil {
							b.Error(err)
							return
						}
						lat[i] = time.Since(t0)
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			slices.Sort(lat)
			b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds()), "p50-ns")
		})
	}
}
