package ebpf

import "testing"

// BenchmarkProgExec measures one programmable check: a bare interpreter
// run, the constant-extraction (bitmap-analog) tier that answers without
// executing, and the full Check path on a must-run number.
func BenchmarkProgExec(b *testing.B) {
	src, err := NewSource("rate-limit", rateLimitMaps, rateLimitText)
	if err != nil {
		b.Fatal(err)
	}
	statefulCtx := NewCtx(2, [NumArgs]uint64{})
	constCtx := NewCtx(1, [NumArgs]uint64{})

	b.Run("interp", func(b *testing.B) {
		vm := src.Verified().NewVM()
		ms := NewMapSet(rateLimitMaps)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = vm.Run(&statefulCtx, ms)
		}
	})
	b.Run("const-extract", func(b *testing.B) {
		a := src.Attach()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = a.Check(&constCtx)
		}
	})
	b.Run("stateful-check", func(b *testing.B) {
		a := src.Attach()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = a.Check(&statefulCtx)
		}
	})
}

// BenchmarkVerify measures verification cost itself (attach-time, not
// per-call, but it bounds profile hot-swap latency).
func BenchmarkVerify(b *testing.B) {
	prog, err := Assemble(rateLimitText, rateLimitMaps)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Verify(prog, rateLimitMaps); err != nil {
			b.Fatal(err)
		}
	}
}
