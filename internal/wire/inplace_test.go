package wire

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"draco/internal/engine"
	"draco/internal/seccomp"
)

// The batch codec stores and loads whole frames in place. These are the
// per-element codecs it replaced, kept as the reference: one appendCall /
// decodeCall / appendDecision / decodeDecision per element, and the frame
// checks exactly as they stood.

func refAppendBatchReq(dst []byte, tenant string, calls []engine.Call) []byte {
	dst = appendTenant(dst, tenant)
	var n [4]byte
	le.PutUint32(n[:], uint32(len(calls)))
	dst = append(dst, n[:]...)
	for _, c := range calls {
		dst = appendCall(dst, c)
	}
	return dst
}

func refAppendBatchResp(dst []byte, ds []engine.Decision) []byte {
	var n [4]byte
	le.PutUint32(n[:], uint32(len(ds)))
	dst = append(dst, n[:]...)
	for _, d := range ds {
		dst = appendDecision(dst, d)
	}
	return dst
}

func refDecodeBatchReq(p []byte, dst []engine.Call) (tenant []byte, calls []engine.Call, err error) {
	tenant, rest, err := splitTenant(p)
	if err != nil {
		return nil, dst, err
	}
	if len(rest) < 4 {
		return nil, dst, ErrTruncated
	}
	n := int(le.Uint32(rest))
	if n < 0 || n > MaxBatch {
		return nil, dst, fmt.Errorf("wire: batch of %d exceeds limit %d", n, MaxBatch)
	}
	body := rest[4:]
	if len(body) != n*callBytes {
		return nil, dst, ErrTruncated
	}
	for i := 0; i < n; i++ {
		dst = append(dst, decodeCall(body[i*callBytes:]))
	}
	return tenant, dst, nil
}

func refDecodeBatchResp(p []byte, dst []engine.Decision) ([]engine.Decision, error) {
	if len(p) < 4 {
		return dst, ErrTruncated
	}
	n := int(le.Uint32(p))
	if n < 0 || n > MaxBatch {
		return dst, fmt.Errorf("wire: batch response of %d exceeds limit %d", n, MaxBatch)
	}
	body := p[4:]
	if len(body) != n*decisionBytes {
		return dst, ErrTruncated
	}
	for i := 0; i < n; i++ {
		dst = append(dst, decodeDecision(body[i*decisionBytes:]))
	}
	return dst, nil
}

// sameErr holds two decoders to the same verdict: both accept, or both
// reject with the same error (the sentinel itself, or the same message).
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a == b || a.Error() == b.Error()
}

// checkBatchReqDecode decodes p with the in-place decoder and the reference
// and requires the same verdict and, when accepted, the same calls whether
// read by At or by AppendTo behind an existing prefix.
func checkBatchReqDecode(t *testing.T, p []byte) {
	t.Helper()
	prefix := []engine.Call{{SID: -7, Args: [6]uint64{1, 2, 3, 4, 5, 6}}}
	refTenant, want, refErr := refDecodeBatchReq(p, append([]engine.Call(nil), prefix...))
	tenant, seq, err := DecodeBatchReq(p)
	if !sameErr(err, refErr) {
		t.Fatalf("batch req %x: error %v, reference %v", p, err, refErr)
	}
	if err != nil {
		return
	}
	if !bytes.Equal(tenant, refTenant) || seq.Len() != len(want)-len(prefix) {
		t.Fatalf("batch req: tenant %q len %d, reference %q len %d", tenant, seq.Len(), refTenant, len(want)-len(prefix))
	}
	got := seq.AppendTo(append([]engine.Call(nil), prefix...))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("AppendTo decoded %+v, reference %+v", got, want)
	}
	for i := 0; i < seq.Len(); i++ {
		if seq.At(i) != want[len(prefix)+i] {
			t.Fatalf("At(%d) = %+v, reference %+v", i, seq.At(i), want[len(prefix)+i])
		}
	}
	if rt := AppendBatchReq(nil, string(tenant), got[len(prefix):]); !bytes.Equal(rt, p) {
		t.Fatalf("batch req does not re-encode to itself")
	}
}

// checkBatchRespDecode is checkBatchReqDecode for response payloads.
func checkBatchRespDecode(t *testing.T, p []byte) {
	t.Helper()
	prefix := []engine.Decision{{Allowed: true, FilterInstructions: 9, Action: seccomp.ActKillProcess}}
	want, refErr := refDecodeBatchResp(p, append([]engine.Decision(nil), prefix...))
	got, err := DecodeBatchResp(p, append([]engine.Decision(nil), prefix...))
	if !sameErr(err, refErr) {
		t.Fatalf("batch resp %x: error %v, reference %v", p, err, refErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("batch resp decoded %+v, reference %+v", got, want)
	}
}

// batchOf draws n calls and n decisions covering every field's full range.
func batchOf(rng *rand.Rand, n int) ([]engine.Call, []engine.Decision) {
	calls := make([]engine.Call, n)
	ds := make([]engine.Decision, n)
	for i := range calls {
		calls[i].SID = int(int32(rng.Uint32()))
		for a := range calls[i].Args {
			calls[i].Args[a] = rng.Uint64()
		}
		ds[i] = engine.Decision{
			Allowed:            rng.Intn(2) == 0,
			Cached:             rng.Intn(2) == 0,
			FilterInstructions: int(rng.Uint32()),
			Action:             seccomp.Action(rng.Uint32()),
		}
	}
	return calls, ds
}

// TestBatchCodecInPlaceMatchesReference: for 0…MaxBatch calls, behind any
// destination prefix, the in-place encoders produce the reference's bytes
// and the in-place decoders the reference's values.
func TestBatchCodecInPlaceMatchesReference(t *testing.T) {
	check := func(seed int64, size uint16, tenantLen uint8, prefixLen uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(size) % (MaxBatch + 1)
		switch seed % 4 { // the edges, a quarter of the time
		case 0:
			n = []int{0, 1, 64, MaxBatch}[int(size)%4]
		}
		calls, ds := batchOf(rng, n)
		tenant := make([]byte, tenantLen)
		rng.Read(tenant)
		prefix := make([]byte, prefixLen)
		rng.Read(prefix)

		req := AppendBatchReq(append([]byte(nil), prefix...), string(tenant), calls)
		if !bytes.Equal(req, refAppendBatchReq(append([]byte(nil), prefix...), string(tenant), calls)) {
			t.Errorf("AppendBatchReq(n=%d) differs from the per-element encoding", n)
			return false
		}
		resp := AppendBatchResp(append([]byte(nil), prefix...), ds)
		if !bytes.Equal(resp, refAppendBatchResp(append([]byte(nil), prefix...), ds)) {
			t.Errorf("AppendBatchResp(n=%d) differs from the per-element encoding", n)
			return false
		}
		checkBatchReqDecode(t, req[len(prefix):])
		checkBatchRespDecode(t, resp[len(prefix):])
		return !t.Failed()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// malformedBatches derives from one valid request and one valid response
// every kind of frame the decoders reject: cut short, padded, a count that
// lies either way, a count past MaxBatch, a tenant length past the payload.
func malformedBatches(calls []engine.Call, ds []engine.Decision) (reqs, resps [][]byte) {
	req := AppendBatchReq(nil, "ten", calls)
	resp := AppendBatchResp(nil, ds)
	countAt := 1 + len("ten")
	lie := func(p []byte, at int, n uint32) []byte {
		q := append([]byte(nil), p...)
		le.PutUint32(q[at:], n)
		return q
	}
	for _, cut := range []int{1, 4, callBytes - 1, callBytes, len(req) - 1, len(req)} {
		reqs = append(reqs, req[:len(req)-cut])
	}
	for _, cut := range []int{1, 4, decisionBytes, len(resp) - 3, len(resp)} {
		resps = append(resps, resp[:len(resp)-cut])
	}
	n := uint32(len(calls))
	for _, c := range []uint32{n + 1, n - 1, 0, MaxBatch, MaxBatch + 1, 1 << 31, ^uint32(0)} {
		reqs = append(reqs, lie(req, countAt, c))
		resps = append(resps, lie(resp, 0, c))
	}
	reqs = append(reqs, append(append([]byte(nil), req...), 0), []byte{200, 'x'}, []byte{3, 't', 'e', 'n', 1, 0})
	resps = append(resps, append(append([]byte(nil), resp...), 0))
	return reqs, resps
}

// TestBatchCodecRejectsWhatTheReferenceRejects: every malformed frame gets
// the error it got from the per-element decoders.
func TestBatchCodecRejectsWhatTheReferenceRejects(t *testing.T) {
	calls, ds := batchOf(rand.New(rand.NewSource(7)), 5)
	reqs, resps := malformedBatches(calls, ds)
	rejected := 0
	for _, p := range reqs {
		if _, _, err := DecodeBatchReq(p); err != nil {
			rejected++
		}
		checkBatchReqDecode(t, p)
	}
	for _, p := range resps {
		if _, err := DecodeBatchResp(p, nil); err != nil {
			rejected++
		}
		checkBatchRespDecode(t, p)
	}
	if rejected != len(reqs)+len(resps) {
		t.Fatalf("%d of %d malformed frames rejected", rejected, len(reqs)+len(resps))
	}
}

// FuzzBatchCodecInPlace feeds arbitrary payloads to both batch decoders and
// holds them to the reference's verdict and values.
func FuzzBatchCodecInPlace(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 2, 64} {
		calls, ds := batchOf(rng, n)
		f.Add(AppendBatchReq(nil, "t", calls))
		f.Add(AppendBatchResp(nil, ds))
	}
	calls, ds := batchOf(rng, 3)
	reqs, resps := malformedBatches(calls, ds)
	for _, p := range append(reqs, resps...) {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		checkBatchReqDecode(t, p)
		checkBatchRespDecode(t, p)
	})
}
