// Package wire is the versioned binary wire format shared by every layer
// that ships IR state between processes: problems, results, and the dist
// coordinator/worker envelopes (DESIGN.md §15). It is stdlib-only and allocation-free on the hot paths:
// writers are pooled append-based buffers, readers are value types with a
// sticky error, and all multi-byte values are explicit little-endian.
//
// Every top-level object travels inside a self-describing frame:
//
//	offset  size  field
//	     0     4  magic "RCRW"
//	     4     2  format version (uint16, little-endian)
//	     6     2  kind (uint16: problem, result, dist envelopes)
//	     8     8  shape fingerprint (uint64)
//	    16     8  content fingerprint (uint64)
//	    24     8  payload length in bytes (uint64)
//	    32     n  payload
//	  32+n     8  FNV-1a checksum over header+payload (uint64)
//
// The version field is checked before the checksum: a future version is free
// to change the checksum algorithm, so a decoder must reject a newer frame
// with ErrVersion rather than misreading its trailer. Fingerprints echo
// prob.Fingerprint and let a decoder prove the payload decodes back to the
// object that was encoded (codec drift detection); kinds keep a Problem
// frame from being misread as a Result frame. Integrity (checksum),
// structure (typed decode errors), identity (fingerprints), and semantics
// (re-certification of remote results, prob.Recertify) are four distinct
// trust layers — this package owns the first three.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

// Version is the current wire format version. Bump it on any layout change;
// golden fixtures under testdata/ pin the encoding so a bump is a reviewed
// decision, and decoders reject frames from other versions with ErrVersion.
const Version uint16 = 1

// Frame kinds. A decoder must check the kind before interpreting a payload.
const (
	KindProblem uint16 = 1 // prob.Problem payload
	KindResult  uint16 = 2 // prob.Result payload
	// 3 and 4 stay unassigned: old cache snapshot files on disk carry them.
	KindSubproblem uint16 = 5 // dist coordinator→worker dispatch envelope (budget + knobs + nested Problem)
	KindSubResult  uint16 = 6 // dist worker→coordinator reply envelope (nested Result or typed refusal)
	KindHello      uint16 = 7 // dist worker handshake; its header version is the skew check
	KindHeartbeat  uint16 = 8 // dist worker liveness beacon (sequence + in-flight job)
)

// HeaderSize is the fixed size of a frame header in bytes; ChecksumSize the
// size of the trailing checksum. A minimal (empty-payload) frame is
// HeaderSize + ChecksumSize bytes.
const (
	HeaderSize   = 32
	ChecksumSize = 8
)

// magic identifies a wire frame. Chosen to be invalid UTF-16/gob/json
// prefixes so cross-format confusion fails fast at the first four bytes.
var magic = [4]byte{'R', 'C', 'R', 'W'}

// Typed decode errors. Decoders never panic on arbitrary bytes; every
// failure wraps exactly one of these sentinels so callers can route
// truncation, version skew, corruption, and codec drift differently.
var (
	// ErrTruncated: the input ends before the structure it promises.
	ErrTruncated = errors.New("wire: truncated input")
	// ErrBadMagic: the input does not start with a wire frame.
	ErrBadMagic = errors.New("wire: bad magic")
	// ErrVersion: the frame was written by a different format version.
	ErrVersion = errors.New("wire: unsupported format version")
	// ErrChecksum: the frame checksum does not match its contents.
	ErrChecksum = errors.New("wire: checksum mismatch")
	// ErrCorrupt: the payload is structurally invalid for its kind.
	ErrCorrupt = errors.New("wire: corrupt payload")
	// ErrFingerprint: the payload decodes cleanly but does not reproduce
	// the shape/content fingerprints promised by its header (codec drift
	// or a collision-grade corruption that survived the checksum).
	ErrFingerprint = errors.New("wire: fingerprint mismatch")
)

// Header is the parsed self-describing frame header.
type Header struct {
	Version uint16
	Kind    uint16
	Shape   uint64 // shape fingerprint of the payload object (0 if unused)
	Content uint64 // content fingerprint of the payload object (0 if unused)
}

// Checksum is the FNV-1a 64-bit hash used for frame trailers. It matches
// the constants of the fingerprint digest in internal/prob so the whole
// trust chain hashes one way.
func Checksum(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// maxPooledBuf bounds the capacity a pooled writer may retain; larger
// one-off buffers are dropped instead of pinning memory in the pool.
const maxPooledBuf = 4 << 20

var writerPool = sync.Pool{New: func() any { return new(Writer) }}

// GetWriter returns a reset Writer from the pool. Pair with PutWriter.
func GetWriter() *Writer {
	w := writerPool.Get().(*Writer)
	w.Reset()
	return w
}

// PutWriter returns w to the pool. The caller must not use w (or any slice
// obtained from w.Bytes) afterwards.
func PutWriter(w *Writer) {
	if w == nil || cap(w.buf) > maxPooledBuf {
		return
	}
	writerPool.Put(w)
}

// Writer is an append-based encode buffer. The zero value is ready to use;
// hot paths should obtain one from GetWriter so its backing array is
// reused. Frames may nest: BeginFrame/EndFrame patch lengths and checksums
// in place, so an outer frame can embed complete inner frames.
type Writer struct {
	buf []byte
}

// Reset truncates the buffer, keeping its capacity.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Len reports the number of encoded bytes.
func (w *Writer) Len() int { return len(w.buf) }

// Bytes returns the encoded bytes. The slice aliases the writer's buffer
// and is invalidated by the next Reset or PutWriter.
func (w *Writer) Bytes() []byte { return w.buf }

// Extend appends n zero bytes and returns the slice covering them, for
// callers that fill a region directly (for example io.ReadFull).
func (w *Writer) Extend(n int) []byte {
	start := len(w.buf)
	for cap(w.buf) < start+n {
		w.buf = append(w.buf[:cap(w.buf)], 0)
	}
	w.buf = w.buf[:start+n]
	region := w.buf[start:]
	for i := range region {
		region[i] = 0
	}
	return region
}

func (w *Writer) U8(v uint8)   { w.buf = append(w.buf, v) }
func (w *Writer) U16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I64 encodes a signed integer as its two's-complement uint64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// F64 encodes a float64 by its IEEE-754 bits; NaN payloads and signed
// zeros round-trip bitwise.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool encodes a bool as one byte (0 or 1).
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// String encodes a length-prefixed string.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// F64s encodes a float64 slice with a nil flag and length prefix; nil and
// empty slices are distinguished so decodes are element-identical.
func (w *Writer) F64s(v []float64) {
	if v == nil {
		w.U8(0)
		return
	}
	w.U8(1)
	w.U32(uint32(len(v)))
	for _, f := range v {
		w.F64(f)
	}
}

// Ints encodes an int slice with a nil flag and length prefix.
func (w *Writer) Ints(v []int) {
	if v == nil {
		w.U8(0)
		return
	}
	w.U8(1)
	w.U32(uint32(len(v)))
	for _, n := range v {
		w.I64(int64(n))
	}
}

// BeginFrame appends a frame header with a zero payload length and returns
// the frame's start offset for the matching EndFrame call.
func (w *Writer) BeginFrame(h Header) int {
	start := len(w.buf)
	w.buf = append(w.buf, magic[:]...)
	w.U16(Version)
	w.U16(h.Kind)
	w.U64(h.Shape)
	w.U64(h.Content)
	w.U64(0) // payload length, patched by EndFrame
	return start
}

// EndFrame patches the payload length of the frame opened at start and
// appends the checksum over its header and payload.
func (w *Writer) EndFrame(start int) {
	payload := uint64(len(w.buf) - start - HeaderSize)
	binary.LittleEndian.PutUint64(w.buf[start+24:start+32], payload)
	w.U64(Checksum(w.buf[start:]))
}

// parseHeader validates magic, version, and payload bounds of the frame at
// the start of data, returning the header and the total frame length
// (header + payload + checksum). It does not verify the checksum.
func parseHeader(data []byte) (Header, int, error) {
	if len(data) < HeaderSize+ChecksumSize {
		return Header{}, 0, fmt.Errorf("%w: %d bytes, want at least %d", ErrTruncated, len(data), HeaderSize+ChecksumSize)
	}
	if [4]byte(data[:4]) != magic {
		return Header{}, 0, fmt.Errorf("%w: % x", ErrBadMagic, data[:4])
	}
	h := Header{
		Version: binary.LittleEndian.Uint16(data[4:6]),
		Kind:    binary.LittleEndian.Uint16(data[6:8]),
		Shape:   binary.LittleEndian.Uint64(data[8:16]),
		Content: binary.LittleEndian.Uint64(data[16:24]),
	}
	// Version before checksum: a future version may change the trailer.
	if h.Version != Version {
		return Header{}, 0, fmt.Errorf("%w: frame v%d, decoder v%d", ErrVersion, h.Version, Version)
	}
	plen := binary.LittleEndian.Uint64(data[24:32])
	if plen > uint64(len(data)-HeaderSize-ChecksumSize) {
		return Header{}, 0, fmt.Errorf("%w: payload claims %d bytes, %d available", ErrTruncated, plen, len(data)-HeaderSize-ChecksumSize)
	}
	return h, HeaderSize + int(plen) + ChecksumSize, nil
}

// FrameLen reports the total byte length of the frame at the start of data
// (validating magic, version, and payload bounds but not the checksum), so
// concatenated frames can be scanned sequentially.
func FrameLen(data []byte) (int, error) {
	_, n, err := parseHeader(data)
	return n, err
}

// PeekHeader validates the magic and version of a bare HeaderSize-byte
// frame header and returns the parsed header plus the payload length it
// promises. Unlike FrameLen it does not require (or bound against) the rest
// of the frame, so stream transports can size the body read from the header
// alone — which also means the payload length here is an unverified claim:
// callers must enforce their own cap before allocating.
func PeekHeader(hdr []byte) (Header, uint64, error) {
	if len(hdr) < HeaderSize {
		return Header{}, 0, fmt.Errorf("%w: %d header bytes, want %d", ErrTruncated, len(hdr), HeaderSize)
	}
	if [4]byte(hdr[:4]) != magic {
		return Header{}, 0, fmt.Errorf("%w: % x", ErrBadMagic, hdr[:4])
	}
	h := Header{
		Version: binary.LittleEndian.Uint16(hdr[4:6]),
		Kind:    binary.LittleEndian.Uint16(hdr[6:8]),
		Shape:   binary.LittleEndian.Uint64(hdr[8:16]),
		Content: binary.LittleEndian.Uint64(hdr[16:24]),
	}
	if h.Version != Version {
		return Header{}, 0, fmt.Errorf("%w: frame v%d, decoder v%d", ErrVersion, h.Version, Version)
	}
	return h, binary.LittleEndian.Uint64(hdr[24:32]), nil
}

// OpenFrame parses and verifies the frame at the start of data, returning
// its header and payload. Bytes after the frame are ignored, so a caller
// scanning concatenated frames can slice by FrameLen. The payload aliases
// data.
func OpenFrame(data []byte) (Header, []byte, error) {
	h, n, err := parseHeader(data)
	if err != nil {
		return Header{}, nil, err
	}
	body := data[:n-ChecksumSize]
	want := binary.LittleEndian.Uint64(data[n-ChecksumSize : n])
	if got := Checksum(body); got != want {
		return Header{}, nil, fmt.Errorf("%w: got %#x, frame says %#x", ErrChecksum, got, want)
	}
	return h, data[HeaderSize : n-ChecksumSize], nil
}

// Reader decodes from a byte slice with a sticky error: after any failure,
// every subsequent read is a cheap no-op returning zero values, and Err
// reports the first failure. The zero Reader reads from nil (empty) input.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader returns a Reader over data. Reader is a value type; pass it by
// pointer to share the cursor.
func NewReader(data []byte) Reader { return Reader{data: data} }

// Err reports the first decode failure, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining reports the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.data) - r.off }

// fail records the first error.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// take consumes n bytes, failing with ErrTruncated if fewer remain. The
// returned slice aliases the input; it is nil after a failure. Length
// checks happen before any allocation so hostile length prefixes cannot
// trigger huge allocations.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.data)-r.off {
		r.fail(fmt.Errorf("%w: need %d bytes, have %d", ErrTruncated, n, len(r.data)-r.off))
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *Reader) I64() int64   { return int64(r.U64()) }
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool decodes a strict one-byte bool; any value other than 0 or 1 is
// ErrCorrupt.
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail(fmt.Errorf("%w: bool byte out of range", ErrCorrupt))
		return false
	}
}

// String decodes a length-prefixed string. It allocates; keep strings off
// the 0-alloc paths.
func (r *Reader) String() string {
	n := r.U32()
	b := r.take(int(n))
	if b == nil {
		return ""
	}
	return string(b)
}

// F64s decodes a float64 slice, reusing dst's backing array when its
// capacity suffices (the steady-state decode path allocates nothing). A
// nil-flagged encoding returns nil regardless of dst.
func (r *Reader) F64s(dst []float64) []float64 {
	switch r.U8() {
	case 0:
		return nil
	case 1:
	default:
		r.fail(fmt.Errorf("%w: slice flag out of range", ErrCorrupt))
		return nil
	}
	return r.f64sN(int(r.U32()), dst)
}

// F64sN decodes exactly n float64 values (no flag or length prefix),
// reusing dst when possible. Used for matrix data whose length is implied
// by its dimensions.
func (r *Reader) F64sN(n int, dst []float64) []float64 {
	return r.f64sN(n, dst)
}

func (r *Reader) f64sN(n int, dst []float64) []float64 {
	b := r.take(8 * n) // bounds-checked before any allocation
	if b == nil {
		return nil
	}
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		dst = make([]float64, n)
	}
	if dst == nil {
		dst = []float64{} // encoded non-nil: keep the distinction
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return dst
}

// Ints decodes an int slice, reusing dst when possible. Values outside the
// int range of the platform fail with ErrCorrupt.
func (r *Reader) Ints(dst []int) []int {
	switch r.U8() {
	case 0:
		return nil
	case 1:
	default:
		r.fail(fmt.Errorf("%w: slice flag out of range", ErrCorrupt))
		return nil
	}
	n := int(r.U32())
	b := r.take(8 * n)
	if b == nil {
		return nil
	}
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		dst = make([]int, n)
	}
	if dst == nil {
		dst = []int{} // encoded non-nil: keep the distinction
	}
	for i := range dst {
		v := int64(binary.LittleEndian.Uint64(b[8*i:]))
		if int64(int(v)) != v {
			r.fail(fmt.Errorf("%w: int value overflows platform int", ErrCorrupt))
			return nil
		}
		dst[i] = int(v)
	}
	return dst
}

// FrameBytes consumes one complete nested frame (validating magic, version,
// and bounds via its header) and returns its raw bytes for OpenFrame. It
// does not verify the inner checksum.
func (r *Reader) FrameBytes() []byte {
	if r.err != nil {
		return nil
	}
	n, err := FrameLen(r.data[r.off:])
	if err != nil {
		r.fail(err)
		return nil
	}
	return r.take(n)
}

// Corruptf records a typed ErrCorrupt failure with context, for decoders
// layered on Reader that discover semantic violations (bad enum values,
// mismatched dimensions).
func (r *Reader) Corruptf(format string, args ...any) {
	r.fail(fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...))
}
