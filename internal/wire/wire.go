// Package wire implements dracod's length-prefixed binary protocol: the
// zero-allocation check path for remote clients. (HTTP carries only
// dracod's control plane.)
//
// Framing is a fixed 16-byte little-endian header followed by a payload:
//
//	offset  size  field
//	0       2     magic (0xD7C0)
//	2       1     version (1)
//	3       1     frame type
//	4       8     request id (echoed verbatim in the response frame)
//	12      4     payload length (bounded by MaxPayload)
//
// Connections are persistent and pipelined: a client may have many request
// frames in flight, and the server answers in completion order — responses
// are matched to requests by id, never by position. The hot-path payloads
// (check and batch frames) are fixed-layout binary encoded/decoded into
// caller-provided buffers, so the steady-state check path performs zero
// heap allocations per frame (pinned by alloc-guard tests). Control-plane
// payloads (profile swap and stats responses) carry JSON documents inside
// binary frames: they are off the hot path and reuse the HTTP control-plane
// types.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"draco/internal/engine"
	"draco/internal/seccomp"
)

const (
	// Magic marks the start of every frame.
	Magic uint16 = 0xD7C0
	// Version is the protocol version this package speaks.
	Version uint8 = 1
	// HeaderSize is the fixed frame-header length in bytes.
	HeaderSize = 16
	// MaxPayload bounds a frame payload (matches the HTTP body bound).
	MaxPayload = 8 << 20
	// MaxBatch bounds the calls in one batch frame, so a single request
	// cannot monopolize a tenant's lock.
	MaxBatch = 4096
	// MaxTenant bounds a tenant-name length (encoded as one byte).
	MaxTenant = 255

	// callBytes is the fixed encoding of one engine.Call: sid + 6 args.
	callBytes = 4 + 8*6
	// decisionBytes is the fixed encoding of one engine.Decision.
	decisionBytes = 1 + 4 + 4

	// CallBytes exports the fixed call encoding so transports with bounded
	// frames (the shm slot rings) can size batches.
	CallBytes = callBytes
)

// Type identifies a frame's meaning.
type Type uint8

const (
	// TypeCheckReq asks for one syscall decision (fixed binary payload).
	TypeCheckReq Type = 1 + iota
	// TypeCheckResp answers one check (fixed binary payload).
	TypeCheckResp
	// TypeBatchReq checks many calls in one frame (fixed binary payload).
	TypeBatchReq
	// TypeBatchResp answers a batch in request order.
	TypeBatchResp
	// TypeProfileReq hot-swaps a tenant profile (JSON profile body).
	TypeProfileReq
	// TypeProfileResp acknowledges a swap (JSON ProfileResponse payload).
	TypeProfileResp
	// TypeStatsReq asks for a tenant's checker statistics.
	TypeStatsReq
	// TypeStatsResp carries a JSON StatsResponse payload.
	TypeStatsResp
	// TypeError reports a request-level failure; the payload is the message.
	TypeError
	// TypeWake is the shared-memory doorbell: rung over the session's
	// control socket when the peer's ring consumer has parked (see
	// internal/shm). It carries no payload and expects no response.
	TypeWake
	// TypeRingReq asks the server to establish a shared-memory ring pair
	// for this connection. The payload is three uint32 words — slot size,
	// submission slots, completion slots — each 0 for the server default.
	TypeRingReq
	// TypeRingResp acknowledges a ring request; the payload is the path of
	// the region file to mmap.
	TypeRingResp

	typeMax
)

func (t Type) String() string {
	switch t {
	case TypeCheckReq:
		return "check-req"
	case TypeCheckResp:
		return "check-resp"
	case TypeBatchReq:
		return "batch-req"
	case TypeBatchResp:
		return "batch-resp"
	case TypeProfileReq:
		return "profile-req"
	case TypeProfileResp:
		return "profile-resp"
	case TypeStatsReq:
		return "stats-req"
	case TypeStatsResp:
		return "stats-resp"
	case TypeError:
		return "error"
	case TypeWake:
		return "wake"
	case TypeRingReq:
		return "ring-req"
	case TypeRingResp:
		return "ring-resp"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Framing errors. Framing-level failures are not recoverable on a
// connection: the stream position is lost, so the peer must close.
var (
	ErrBadMagic   = errors.New("wire: bad frame magic")
	ErrBadVersion = errors.New("wire: unsupported protocol version")
	ErrBadType    = errors.New("wire: unknown frame type")
	ErrOversized  = errors.New("wire: frame payload exceeds MaxPayload")
	ErrTruncated  = errors.New("wire: truncated payload")
)

var le = binary.LittleEndian

// Header is a parsed frame header.
type Header struct {
	// Type is the frame type.
	Type Type
	// ID is the request id; responses echo it so pipelined requests may
	// complete out of order.
	ID uint64
	// Len is the payload length in bytes.
	Len uint32
}

// PutHeader encodes h into dst[:HeaderSize]. dst must have room.
func PutHeader(dst []byte, h Header) {
	_ = dst[HeaderSize-1]
	le.PutUint16(dst[0:], Magic)
	dst[2] = Version
	dst[3] = byte(h.Type)
	le.PutUint64(dst[4:], h.ID)
	le.PutUint32(dst[12:], h.Len)
}

// ParseHeader decodes and validates a frame header.
func ParseHeader(b []byte) (Header, error) {
	if len(b) < HeaderSize {
		return Header{}, ErrTruncated
	}
	if le.Uint16(b[0:]) != Magic {
		return Header{}, ErrBadMagic
	}
	if b[2] != Version {
		return Header{}, ErrBadVersion
	}
	h := Header{Type: Type(b[3]), ID: le.Uint64(b[4:]), Len: le.Uint32(b[12:])}
	if h.Type == 0 || h.Type >= typeMax {
		return Header{}, ErrBadType
	}
	if h.Len > MaxPayload {
		return Header{}, ErrOversized
	}
	return h, nil
}

// --- payload encoding -------------------------------------------------------

// appendTenant encodes a length-prefixed tenant name.
func appendTenant(dst []byte, tenant string) []byte {
	dst = append(dst, byte(len(tenant)))
	return append(dst, tenant...)
}

// splitTenant decodes a length-prefixed tenant name, returning the name as
// a subslice of p (no copy) and the remaining payload.
func splitTenant(p []byte) (tenant, rest []byte, err error) {
	if len(p) < 1 {
		return nil, nil, ErrTruncated
	}
	n := int(p[0])
	if len(p) < 1+n {
		return nil, nil, ErrTruncated
	}
	return p[1 : 1+n], p[1+n:], nil
}

// appendCall encodes one call as sid + six argument words.
func appendCall(dst []byte, c engine.Call) []byte {
	var b [callBytes]byte
	le.PutUint32(b[0:], uint32(c.SID))
	for i, a := range c.Args {
		le.PutUint64(b[4+8*i:], a)
	}
	return append(dst, b[:]...)
}

// putCall is appendCall in place: it stores c into b[:callBytes].
func putCall(b []byte, c *engine.Call) {
	_ = b[callBytes-1]
	le.PutUint32(b[0:], uint32(c.SID))
	for i, a := range c.Args {
		le.PutUint64(b[4+8*i:], a)
	}
}

// getCall is decodeCall in place: it loads b[:callBytes] into c.
func getCall(c *engine.Call, b []byte) {
	_ = b[callBytes-1]
	c.SID = int(int32(le.Uint32(b[0:])))
	for i := range c.Args {
		c.Args[i] = le.Uint64(b[4+8*i:])
	}
}

// grow returns s extended by n elements (reallocating at most once) and the
// extension itself, whose contents the caller must overwrite.
func grow[T any](s []T, n int) (whole, ext []T) {
	whole = slices.Grow(s, n)[:len(s)+n]
	return whole, whole[len(s):]
}

// decodeCall decodes one call from b[:callBytes].
func decodeCall(b []byte) engine.Call {
	var c engine.Call
	c.SID = int(int32(le.Uint32(b[0:])))
	for i := range c.Args {
		c.Args[i] = le.Uint64(b[4+8*i:])
	}
	return c
}

// appendDecision encodes one decision as flags + filter-instruction count +
// the numeric seccomp action word.
func appendDecision(dst []byte, d engine.Decision) []byte {
	var b [decisionBytes]byte
	if d.Allowed {
		b[0] |= 1
	}
	if d.Cached {
		b[0] |= 2
	}
	le.PutUint32(b[1:], uint32(d.FilterInstructions))
	le.PutUint32(b[5:], uint32(d.Action))
	return append(dst, b[:]...)
}

// putDecision is appendDecision in place: it stores d into b[:decisionBytes].
func putDecision(b []byte, d *engine.Decision) {
	_ = b[decisionBytes-1]
	var flags byte
	if d.Allowed {
		flags |= 1
	}
	if d.Cached {
		flags |= 2
	}
	b[0] = flags
	le.PutUint32(b[1:], uint32(d.FilterInstructions))
	le.PutUint32(b[5:], uint32(d.Action))
}

// getDecision is decodeDecision in place: it loads b[:decisionBytes] into d.
func getDecision(d *engine.Decision, b []byte) {
	_ = b[decisionBytes-1]
	d.Allowed, d.Cached = b[0]&1 != 0, b[0]&2 != 0
	d.FilterInstructions = int(le.Uint32(b[1:]))
	d.Action = seccomp.Action(le.Uint32(b[5:]))
}

// decodeDecision decodes one decision from b[:decisionBytes].
func decodeDecision(b []byte) engine.Decision {
	return engine.Decision{
		Allowed:            b[0]&1 != 0,
		Cached:             b[0]&2 != 0,
		FilterInstructions: int(le.Uint32(b[1:])),
		Action:             seccomp.Action(le.Uint32(b[5:])),
	}
}

// AppendCheckReq encodes a single-check request payload.
func AppendCheckReq(dst []byte, tenant string, c engine.Call) []byte {
	dst = appendTenant(dst, tenant)
	return appendCall(dst, c)
}

// DecodeCheckReq decodes a single-check request. tenant aliases p.
func DecodeCheckReq(p []byte) (tenant []byte, c engine.Call, err error) {
	tenant, rest, err := splitTenant(p)
	if err != nil {
		return nil, c, err
	}
	if len(rest) != callBytes {
		return nil, c, ErrTruncated
	}
	return tenant, decodeCall(rest), nil
}

// AppendCheckResp encodes a single-check response payload.
func AppendCheckResp(dst []byte, d engine.Decision) []byte {
	return appendDecision(dst, d)
}

// DecodeCheckResp decodes a single-check response.
func DecodeCheckResp(p []byte) (engine.Decision, error) {
	if len(p) != decisionBytes {
		return engine.Decision{}, ErrTruncated
	}
	return decodeDecision(p), nil
}

// AppendBatchReq encodes a batch-check request payload. dst is sized once
// for the whole frame and every word is stored in place.
func AppendBatchReq(dst []byte, tenant string, calls []engine.Call) []byte {
	dst = appendTenant(dst, tenant)
	dst, b := grow(dst, 4+len(calls)*callBytes)
	le.PutUint32(b, uint32(len(calls)))
	b = b[4:]
	for i := range calls {
		putCall(b[i*callBytes:], &calls[i])
	}
	return dst
}

// CallSeq is a decoded batch request's call sequence, read in place from
// the frame payload without materializing a []engine.Call.
type CallSeq struct {
	b []byte
	n int
}

// Len returns the number of calls in the sequence.
func (s CallSeq) Len() int { return s.n }

// At decodes call i.
func (s CallSeq) At(i int) engine.Call {
	return decodeCall(s.b[i*callBytes:])
}

// AppendTo decodes the whole sequence onto the end of dst, sized once and
// decoded in place.
func (s CallSeq) AppendTo(dst []engine.Call) []engine.Call {
	dst, ext := grow(dst, s.n)
	for i := range ext {
		getCall(&ext[i], s.b[i*callBytes:])
	}
	return dst
}

// DecodeBatchReq decodes a batch-check request. tenant and the sequence
// alias p.
func DecodeBatchReq(p []byte) (tenant []byte, calls CallSeq, err error) {
	tenant, rest, err := splitTenant(p)
	if err != nil {
		return nil, CallSeq{}, err
	}
	if len(rest) < 4 {
		return nil, CallSeq{}, ErrTruncated
	}
	n := int(le.Uint32(rest))
	if n < 0 || n > MaxBatch {
		return nil, CallSeq{}, fmt.Errorf("wire: batch of %d exceeds limit %d", n, MaxBatch)
	}
	body := rest[4:]
	if len(body) != n*callBytes {
		return nil, CallSeq{}, ErrTruncated
	}
	return tenant, CallSeq{b: body, n: n}, nil
}

// AppendBatchResp encodes a batch-check response payload, in place like
// AppendBatchReq.
func AppendBatchResp(dst []byte, ds []engine.Decision) []byte {
	dst, b := grow(dst, 4+len(ds)*decisionBytes)
	le.PutUint32(b, uint32(len(ds)))
	b = b[4:]
	for i := range ds {
		putDecision(b[i*decisionBytes:], &ds[i])
	}
	return dst
}

// DecodeBatchResp decodes a batch-check response, appending the decisions
// to dst (which may be nil).
func DecodeBatchResp(p []byte, dst []engine.Decision) ([]engine.Decision, error) {
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
	dst, ext := grow(dst, n)
	for i := range ext {
		getDecision(&ext[i], body[i*decisionBytes:])
	}
	return dst, nil
}

// AppendProfileReq encodes a profile-swap request: tenant, engine name
// ("" keeps the server default), and the Docker-format JSON profile body.
func AppendProfileReq(dst []byte, tenant, engineName string, profileJSON []byte) []byte {
	dst = appendTenant(dst, tenant)
	dst = append(dst, byte(len(engineName)))
	dst = append(dst, engineName...)
	return append(dst, profileJSON...)
}

// DecodeProfileReq decodes a profile-swap request. All returns alias p.
func DecodeProfileReq(p []byte) (tenant, engineName, profileJSON []byte, err error) {
	tenant, rest, err := splitTenant(p)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(rest) < 1 {
		return nil, nil, nil, ErrTruncated
	}
	n := int(rest[0])
	if len(rest) < 1+n {
		return nil, nil, nil, ErrTruncated
	}
	return tenant, rest[1 : 1+n], rest[1+n:], nil
}

// AppendStatsReq encodes a stats request payload.
func AppendStatsReq(dst []byte, tenant string) []byte {
	return appendTenant(dst, tenant)
}

// DecodeStatsReq decodes a stats request. tenant aliases p.
func DecodeStatsReq(p []byte) (tenant []byte, err error) {
	tenant, rest, err := splitTenant(p)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, ErrTruncated
	}
	return tenant, nil
}

// --- reader / writer --------------------------------------------------------

// Reader reads frames from a connection. The payload returned by Next is
// only valid until the next call: it aliases an internal buffer that is
// reused (and grown on demand) so steady-state reads do not allocate.
type Reader struct {
	br      *bufio.Reader
	payload []byte
	hdr     [HeaderSize]byte
}

// readerBufSize is the connection read-buffer size; large enough that a
// pipelined burst of check frames is consumed in one read syscall.
const readerBufSize = 64 << 10

// NewReader builds a frame reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, readerBufSize)}
}

// Next reads one frame. The returned payload aliases the reader's buffer
// and is invalidated by the following Next call. A clean EOF at a frame
// boundary returns io.EOF; a mid-frame EOF returns io.ErrUnexpectedEOF.
func (r *Reader) Next() (Header, []byte, error) {
	if _, err := io.ReadFull(r.br, r.hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return Header{}, nil, io.ErrUnexpectedEOF
		}
		return Header{}, nil, err
	}
	h, err := ParseHeader(r.hdr[:])
	if err != nil {
		return Header{}, nil, err
	}
	if int(h.Len) > cap(r.payload) {
		r.payload = make([]byte, h.Len)
	}
	p := r.payload[:h.Len]
	if _, err := io.ReadFull(r.br, p); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Header{}, nil, err
	}
	return h, p, nil
}

// Buffered reports the bytes already read from the connection but not yet
// consumed as frames. Zero means the peer has no further request in this
// burst — the server uses that as its response-flush signal.
func (r *Reader) Buffered() int { return r.br.Buffered() }

// Writer frames and writes messages to a connection, safe for concurrent
// use. Flushing is group-committed: a Send flushes only when no other
// goroutine is queued behind it, so concurrent pipelined senders share one
// write syscall. Errors are sticky — once a write fails the Writer stays
// failed and every later call returns the same error.
type Writer struct {
	queued atomic.Int32

	mu  sync.Mutex
	bw  *bufio.Writer
	err error
	hdr [HeaderSize]byte
	// resp is SendCheckResp's scratch space: writer-owned (not
	// stack-allocated) so escape analysis does not charge a heap
	// allocation for handing it to the underlying io.Writer.
	resp [HeaderSize + decisionBytes]byte
}

// writerBufSize is the connection write-buffer size.
const writerBufSize = 64 << 10

// NewWriter builds a frame writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, writerBufSize)}
}

// Err returns the sticky write error, if any.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// writeLocked frames one message into the buffered writer.
func (w *Writer) writeLocked(t Type, id uint64, payload []byte) error {
	if w.err != nil {
		return w.err
	}
	PutHeader(w.hdr[:], Header{Type: t, ID: id, Len: uint32(len(payload))})
	if _, err := w.bw.Write(w.hdr[:]); err != nil {
		w.err = err
		return err
	}
	if _, err := w.bw.Write(payload); err != nil {
		w.err = err
		return err
	}
	return nil
}

// Send frames and writes one message, flushing unless another sender is
// already waiting (group commit).
func (w *Writer) Send(t Type, id uint64, payload []byte) error {
	w.queued.Add(1)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.queued.Add(-1)
	if err := w.writeLocked(t, id, payload); err != nil {
		return err
	}
	if w.queued.Load() == 0 {
		if err := w.bw.Flush(); err != nil {
			w.err = err
			return err
		}
	}
	return nil
}

// SendBuffered frames one message without flushing. The caller must call
// Flush afterwards (a batch responder writes every decision, then flushes
// once per connection).
func (w *Writer) SendBuffered(t Type, id uint64, payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.writeLocked(t, id, payload)
}

// SendCheckResp frames a single-check response built in the writer's own
// scratch space: the server's hot path, allocation-free, no flush.
func (w *Writer) SendCheckResp(id uint64, d engine.Decision) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	PutHeader(w.resp[:], Header{Type: TypeCheckResp, ID: id, Len: decisionBytes})
	_ = appendDecision(w.resp[:HeaderSize], d)
	if _, err := w.bw.Write(w.resp[:]); err != nil {
		w.err = err
		return err
	}
	return nil
}

// Flush drains the write buffer to the connection.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if err := w.bw.Flush(); err != nil {
		w.err = err
		return err
	}
	return nil
}

// --- buffer pool ------------------------------------------------------------

// Buffer is a pooled byte slice for frame payload assembly.
type Buffer struct {
	// B is the backing slice; append to B[:0] and pass the result back.
	B []byte
}

// maxPooledBuffer caps what returns to the pool, so one oversized profile
// upload does not pin megabytes.
const maxPooledBuffer = 1 << 16

var bufPool = sync.Pool{New: func() any { return &Buffer{B: make([]byte, 0, 4096)} }}

// GetBuffer fetches a payload buffer from the pool.
func GetBuffer() *Buffer { return bufPool.Get().(*Buffer) }

// PutBuffer returns a buffer to the pool.
func PutBuffer(b *Buffer) {
	if cap(b.B) > maxPooledBuffer {
		return
	}
	b.B = b.B[:0]
	bufPool.Put(b)
}
