package concurrent

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"draco/internal/core"
	"draco/internal/profilegen"
	"draco/internal/seccomp"
	"draco/internal/workloads"
)

// traffic is one call stream of the benchmarks.
type traffic struct {
	name  string
	calls []Call
}

// benchTraffics builds the first workload's complete profile and two call
// streams over it. "hits" is the workload's own trace: once warm, every
// call is a plane constant or a lock-free VAT hit. "deny10" is the same
// trace with one call in ten replaced by a call from another workload's
// trace that the profile denies, as the contract's churn workload does:
// denials are never cached, and those the plane cannot prove constant take
// the lock on every check.
func benchTraffics(tb testing.TB) (*seccomp.Profile, []traffic) {
	tb.Helper()
	all := workloads.All()
	tr := all[0].Generate(50_000, 42)
	p := profilegen.Complete(all[0].Name, tr, profilegen.Options{IncludeRuntime: true})
	hits := make([]Call, len(tr))
	for i, ev := range tr {
		hits[i] = Call{SID: ev.SID, Args: ev.Args}
	}
	var foreign []Call
	for _, ev := range all[1].Generate(50_000, 43) {
		d := seccomp.Data{Nr: int32(ev.SID), Arch: seccomp.AuditArchX8664, Args: ev.Args}
		if !p.Evaluate(&d).Allows() {
			foreign = append(foreign, Call{SID: ev.SID, Args: ev.Args})
		}
	}
	if len(foreign) == 0 {
		tb.Fatal("the profile denies no call of the foreign trace")
	}
	rng := rand.New(rand.NewSource(42))
	mix := make([]Call, len(hits))
	for i := range mix {
		mix[i] = hits[i]
		if rng.Intn(10) == 0 {
			mix[i] = foreign[rng.Intn(len(foreign))]
		}
	}
	return p, []traffic{{"hits", hits}, {"deny10", mix}}
}

// warmChecker builds a checker on the serving tier (ExecBitmap) and replays
// calls through it once, so the tables and the plane are warm.
func warmChecker(tb testing.TB, p *seccomp.Profile, calls []Call) *Checker {
	tb.Helper()
	c, err := NewCheckerConfig(p, Config{Mode: seccomp.ExecBitmap})
	if err != nil {
		tb.Fatal(err)
	}
	for i := range calls {
		c.CheckDecision(calls[i].SID, &calls[i].Args)
	}
	return c
}

// BenchmarkConcurrentCheckerParallel measures parallel CheckDecision
// throughput on the serving tier, per traffic shape: warm hits, which take
// no lock, and the deny mix, whose denials do. `make bench` runs it; run it
// at -cpu 1,2 to see what a second caller adds.
func BenchmarkConcurrentCheckerParallel(b *testing.B) {
	p, traffics := benchTraffics(b)
	for _, tf := range traffics {
		b.Run(tf.name, func(b *testing.B) {
			c := warmChecker(b, p, tf.calls)
			var cursor atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				// Each goroutine walks the trace from its own offset.
				i := cursor.Add(1) * 7919
				for pb.Next() {
					cl := &tf.calls[i%uint64(len(tf.calls))]
					c.CheckDecision(cl.SID, &cl.Args)
					i++
				}
			})
		})
	}
}

// BenchmarkConcurrentCheckerBatchParallel measures CheckBatchDecisions at
// the service's default batch size, per traffic shape, from parallel
// callers.
func BenchmarkConcurrentCheckerBatchParallel(b *testing.B) {
	const batchSize = 64
	p, traffics := benchTraffics(b)
	for _, tf := range traffics {
		b.Run(tf.name, func(b *testing.B) {
			c := warmChecker(b, p, tf.calls)
			var cursor atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				off := cursor.Add(1) * 7919
				calls := make([]Call, batchSize)
				var dst []core.Decision
				for pb.Next() {
					for j := range calls {
						calls[j] = tf.calls[(off+uint64(j))%uint64(len(tf.calls))]
					}
					dst = c.CheckBatchDecisions(calls, dst)
					off += batchSize
				}
			})
		})
	}
}
