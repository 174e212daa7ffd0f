package engine

import (
	"sync/atomic"
	"testing"

	"draco/internal/profilegen"
	"draco/internal/workloads"
)

// benchTrace builds the benchmark fixture: the httpd trace under its
// app-complete profile, so the measured path is the warm serving state.
func benchTrace(b *testing.B) ([]Call, Options) {
	b.Helper()
	w := workloads.All()[0]
	tr := w.Generate(50_000, 42)
	calls := make([]Call, len(tr))
	for i, ev := range tr {
		calls[i] = Call{SID: ev.SID, Args: ev.Args}
	}
	return calls, Options{Profile: profilegen.Complete(w.Name, tr, profilegen.Options{IncludeRuntime: true})}
}

// BenchmarkEngineCheck measures warm single-call throughput of every
// registered engine through the registry — the apples-to-apples comparison
// the Engine interface exists for. `make bench-engine` runs it.
func BenchmarkEngineCheck(b *testing.B) {
	calls, opts := benchTrace(b)
	for _, name := range Names() {
		b.Run(name, func(b *testing.B) {
			e, err := New(name, opts)
			if err != nil {
				b.Fatal(err)
			}
			for _, cl := range calls {
				e.Check(cl.SID, cl.Args)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cl := calls[i%len(calls)]
				e.Check(cl.SID, cl.Args)
			}
		})
	}
}

// BenchmarkEngineCheckParallel runs parallel callers against
// draco-concurrent through the registry: the warm trace, so its hits take
// the plane and the lock-free VAT probe.
func BenchmarkEngineCheckParallel(b *testing.B) {
	calls, opts := benchTrace(b)
	e, err := New("draco-concurrent", opts)
	if err != nil {
		b.Fatal(err)
	}
	for _, cl := range calls {
		e.Check(cl.SID, cl.Args)
	}
	var cursor atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := cursor.Add(1) * 7919
		for pb.Next() {
			cl := calls[i%uint64(len(calls))]
			e.Check(cl.SID, cl.Args)
			i++
		}
	})
}
