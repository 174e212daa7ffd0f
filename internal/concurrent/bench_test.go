package concurrent

import (
	"fmt"
	"sync/atomic"
	"testing"

	"draco/internal/profilegen"
	"draco/internal/seccomp"
	"draco/internal/workloads"
)

// BenchmarkConcurrentCheckerParallel measures parallel check throughput
// across VAT shard fan-outs. The trace is replayed warm (tables populated
// first), so the hot path is plane and lock-free VAT hits — the serving
// steady state. `make bench` runs it.
func BenchmarkConcurrentCheckerParallel(b *testing.B) {
	w := workloads.All()[0]
	tr := w.Generate(50_000, 42)
	p := profilegen.Complete(w.Name, tr, profilegen.Options{IncludeRuntime: true})
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c, err := NewCheckerConfig(p, Config{Shards: shards, Mode: seccomp.ExecCompiled})
			if err != nil {
				b.Fatal(err)
			}
			for _, ev := range tr {
				c.Check(ev.SID, ev.Args)
			}
			var cursor atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				// Each goroutine walks the trace from its own offset so
				// parallel callers spread across shards.
				i := cursor.Add(1) * 7919
				for pb.Next() {
					ev := tr[i%uint64(len(tr))]
					c.Check(ev.SID, ev.Args)
					i++
				}
			})
		})
	}
}

// BenchmarkConcurrentCheckerBatchParallel measures the amortized batch
// entry point at the service's default batch size.
func BenchmarkConcurrentCheckerBatchParallel(b *testing.B) {
	const batchSize = 64
	w := workloads.All()[0]
	tr := w.Generate(50_000, 42)
	p := profilegen.Complete(w.Name, tr, profilegen.Options{IncludeRuntime: true})
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c := mustChecker(b, p, shards)
			for _, ev := range tr {
				c.Check(ev.SID, ev.Args)
			}
			var cursor atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				off := cursor.Add(1) * 7919
				calls := make([]Call, batchSize)
				var dst []Outcome
				for pb.Next() {
					for j := range calls {
						ev := tr[(off+uint64(j))%uint64(len(tr))]
						calls[j] = Call{SID: ev.SID, Args: ev.Args}
					}
					dst = c.CheckBatch(calls, dst)
					off += batchSize
				}
			})
		})
	}
}
