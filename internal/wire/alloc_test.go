package wire

import (
	"bytes"
	"testing"

	"draco/internal/engine"
	"draco/internal/seccomp"
)

// The wire codec's steady-state check path is part of the Engine-layer
// zero-allocation contract (DESIGN.md §9): encode into pooled buffers,
// decode in place from the reader's reused payload buffer. These guards
// fail the build the moment framing reintroduces a per-frame allocation,
// exactly like the engine-layer guards in internal/engine/alloc_test.go.

// discard is a no-op sink with no per-write state.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func TestCheckEncodeZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc guard")
	}
	call := engine.Call{SID: 17, Args: [6]uint64{3, 0, 4096}}
	w := NewWriter(discard{})
	perRun := testing.AllocsPerRun(2000, func() {
		buf := GetBuffer()
		buf.B = AppendCheckReq(buf.B[:0], "tenant", call)
		if err := w.Send(TypeCheckReq, 1, buf.B); err != nil {
			t.Fatal(err)
		}
		PutBuffer(buf)
	})
	if perRun != 0 {
		t.Fatalf("check encode+send allocates %.2f allocs/op, want 0", perRun)
	}
}

func TestCheckRespSendZeroAllocs(t *testing.T) {
	d := engine.Decision{Allowed: true, Cached: true}
	w := NewWriter(discard{})
	perRun := testing.AllocsPerRun(2000, func() {
		if err := w.SendCheckResp(7, d); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	})
	if perRun != 0 {
		t.Fatalf("check resp send allocates %.2f allocs/op, want 0", perRun)
	}
}

// loopReader replays one encoded stream forever, so the reader's steady
// state can be measured without per-iteration setup.
type loopReader struct {
	b   []byte
	off int
}

func (l *loopReader) Read(p []byte) (int, error) {
	if l.off == len(l.b) {
		l.off = 0
	}
	n := copy(p, l.b[l.off:])
	l.off += n
	return n, nil
}

func TestCheckDecodeZeroAllocs(t *testing.T) {
	call := engine.Call{SID: 17, Args: [6]uint64{3, 0, 4096}}
	var stream bytes.Buffer
	w := NewWriter(&stream)
	for i := 0; i < 64; i++ {
		if err := w.Send(TypeCheckReq, uint64(i), AppendCheckReq(nil, "tenant", call)); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(&loopReader{b: stream.Bytes()})
	// Warm the reader's payload buffer once.
	if _, _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	perRun := testing.AllocsPerRun(2000, func() {
		h, p, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if h.Type != TypeCheckReq {
			t.Fatalf("type %v", h.Type)
		}
		if _, _, err := DecodeCheckReq(p); err != nil {
			t.Fatal(err)
		}
	})
	if perRun != 0 {
		t.Fatalf("frame read+decode allocates %.2f allocs/op, want 0", perRun)
	}
}

func TestBatchCodecZeroAllocs(t *testing.T) {
	calls := make([]engine.Call, 64)
	ds := make([]engine.Decision, 64)
	for i := range calls {
		calls[i] = engine.Call{SID: i}
		ds[i] = engine.Decision{Allowed: true}
	}
	encoded := AppendBatchReq(nil, "tenant", calls)
	reqBuf := make([]byte, 0, len(encoded))
	decoded := make([]engine.Call, 0, len(calls))
	respBuf := make([]byte, 0, 8+len(ds)*decisionBytes)
	dst := make([]engine.Decision, 0, len(ds))
	perRun := testing.AllocsPerRun(500, func() {
		reqBuf = AppendBatchReq(reqBuf[:0], "tenant", calls)
		_, seq, err := DecodeBatchReq(reqBuf)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < seq.Len(); i++ {
			_ = seq.At(i)
		}
		decoded = seq.AppendTo(decoded[:0])
		respBuf = AppendBatchResp(respBuf[:0], ds)
		var derr error
		dst, derr = DecodeBatchResp(respBuf, dst[:0])
		if derr != nil {
			t.Fatal(derr)
		}
	})
	if perRun != 0 {
		t.Fatalf("batch codec allocates %.2f allocs/op, want 0", perRun)
	}
}

var benchSinkHeader Header

// BenchmarkBatchCodec64 times the four codec steps of one 64-call batch
// request: request encode, decode into a call slice, response encode,
// response decode.
func BenchmarkBatchCodec64(b *testing.B) {
	calls := make([]engine.Call, 64)
	ds := make([]engine.Decision, 64)
	for i := range calls {
		calls[i] = engine.Call{SID: i, Args: [6]uint64{uint64(i), 0, 4096}}
		ds[i] = engine.Decision{Allowed: true, Cached: i%2 == 0, Action: seccomp.ActAllow}
	}
	req := AppendBatchReq(nil, "tenant", calls)
	resp := AppendBatchResp(nil, ds)
	var decoded []engine.Call
	var dst []engine.Decision
	b.Run("req-encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			req = AppendBatchReq(req[:0], "tenant", calls)
		}
	})
	b.Run("req-decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, seq, err := DecodeBatchReq(req)
			if err != nil {
				b.Fatal(err)
			}
			decoded = seq.AppendTo(decoded[:0])
		}
	})
	b.Run("resp-encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			resp = AppendBatchResp(resp[:0], ds)
		}
	})
	b.Run("resp-decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var err error
			if dst, err = DecodeBatchResp(resp, dst[:0]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkWireCheckRoundTrip(b *testing.B) {
	call := engine.Call{SID: 17, Args: [6]uint64{3, 0, 4096}}
	var stream bytes.Buffer
	w := NewWriter(&stream)
	if err := w.Send(TypeCheckReq, 1, AppendCheckReq(nil, "tenant", call)); err != nil {
		b.Fatal(err)
	}
	r := NewReader(&loopReader{b: stream.Bytes()})
	sink := NewWriter(discard{})
	buf := GetBuffer()
	defer PutBuffer(buf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.B = AppendCheckReq(buf.B[:0], "tenant", call)
		if err := sink.Send(TypeCheckReq, uint64(i), buf.B); err != nil {
			b.Fatal(err)
		}
		h, p, err := r.Next()
		if err != nil {
			b.Fatal(err)
		}
		benchSinkHeader = h
		if _, _, err := DecodeCheckReq(p); err != nil {
			b.Fatal(err)
		}
	}
}
