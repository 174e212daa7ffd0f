package concurrent

import (
	"fmt"
	"testing"

	"draco/internal/core"
)

// benchBatchSetup builds a warm serving-tier checker over the first
// workload's trace and the calls the batch benchmarks replay.
func benchBatchSetup(tb testing.TB) (*Checker, []Call) {
	tb.Helper()
	p, traffics := benchTraffics(tb)
	calls := traffics[0].calls
	return warmChecker(tb, p, calls), calls
}

// BenchmarkCheckBatchBatched measures CheckBatchDecisions (the lock-free
// pass, then one lock for the residue) against
// BenchmarkCheckBatchOneByOne (the same calls through CheckDecision one at
// a time) at the service's batch sizes. The 512-call case is the
// stack-buffer cutoff; 8 and 64 sit well inside it.
func BenchmarkCheckBatchBatched(b *testing.B) {
	for _, size := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("n=%d", size), func(b *testing.B) {
			c, calls := benchBatchSetup(b)
			var dst []core.Decision
			off := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if off+size > len(calls) {
					off = 0
				}
				dst = c.CheckBatchDecisions(calls[off:off+size], dst)
				off += size
			}
		})
	}
}

// BenchmarkCheckBatchOneByOne is the unbatched baseline: the same batches
// checked call by call, each loading the state and, on a miss, taking the
// lock on its own.
func BenchmarkCheckBatchOneByOne(b *testing.B) {
	for _, size := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("n=%d", size), func(b *testing.B) {
			c, calls := benchBatchSetup(b)
			dst := make([]core.Decision, size)
			off := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if off+size > len(calls) {
					off = 0
				}
				for j := range calls[off : off+size] {
					cl := &calls[off+j]
					dst[j] = c.CheckDecision(cl.SID, &cl.Args)
				}
				off += size
			}
		})
	}
}

// TestCheckBatchZeroAllocs pins the batch path at zero heap allocations
// for batches up to batchStack when dst is reused: the residue list lives
// on the stack.
func TestCheckBatchZeroAllocs(t *testing.T) {
	c, calls := benchBatchSetup(t)
	for _, size := range []int{8, 64, batchStack} {
		dst := make([]Outcome, size)
		off := 0
		per := testing.AllocsPerRun(500, func() {
			if off+size > len(calls) {
				off = 0
			}
			dst = c.CheckBatch(calls[off:off+size], dst)
			off += size
		})
		if per != 0 {
			t.Fatalf("CheckBatch(n=%d) allocates %.2f allocs/op, want 0", size, per)
		}
	}
}
