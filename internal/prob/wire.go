// Binary wire codecs for Problem and Result (DESIGN.md §15). The payload
// layout deliberately mirrors the Fingerprint walk in cache.go field for
// field: the self-describing frame header carries the shape/content
// fingerprints, and a decoder re-fingerprints the decoded object and
// rejects any mismatch (wire.ErrFingerprint), so codec drift between the
// two walks is caught at the first decode rather than silently corrupting
// the cache.
//
// Results serialize the certified answer and its provenance — solution,
// objective, typed status, trail, cert verdict summary, residual/gap — but
// not the raw backend sub-results (LP/MILP/QP/SDP pointers): those carry
// pre-lift internals that are reconstructible by re-solving and would drag
// every backend's private layout into the frozen wire contract.

package prob

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/cert"
	"repro/internal/guard"
	"repro/internal/mat"
	"repro/internal/wire"
)

// maxWireFrame bounds the frame size ReadFrom will buffer from a stream,
// so a hostile length prefix cannot force a huge allocation before the
// checksum is checked.
const maxWireFrame = 1 << 31

// EncodeWire appends p's complete framed encoding (header, payload,
// checksum) to w. Encoding cannot fail; the frame header carries p's
// shape/content fingerprints.
func (p *Problem) EncodeWire(w *wire.Writer) {
	fp := p.Fingerprint()
	start := w.BeginFrame(wire.Header{Kind: wire.KindProblem, Shape: fp.Shape, Content: fp.Content})
	p.encodeWirePayload(w)
	w.EndFrame(start)
}

// Payload tags mirroring the fingerprint walk's problem-kind tags.
const (
	wireTagMatrix = 1
	wireTagVector = 2
)

func (p *Problem) encodeWirePayload(w *wire.Writer) {
	if p.Matrix != nil {
		m := p.Matrix
		w.U8(wireTagMatrix)
		w.I64(int64(m.Dim))
		w.U8(uint8(m.Obj))
		w.Bool(m.PSD)
		writeWireMatrix(w, m.C)
		if m.A == nil {
			w.U8(0)
		} else {
			w.U8(1)
			w.U32(uint32(len(m.A)))
			for _, a := range m.A {
				writeWireMatrix(w, a)
			}
		}
		w.F64s(m.B)
		return
	}
	w.U8(wireTagVector)
	w.I64(int64(p.NumVars))
	w.Bool(p.Obj.Maximize)
	w.F64s(p.Obj.Lin)
	writeWireMatrix(w, p.Obj.Quad)
	w.F64(p.Obj.Const)
	w.F64s(p.Lo)
	w.F64s(p.Hi)
	w.Ints(p.Integer)
	if p.Lin == nil {
		w.U8(0)
	} else {
		w.U8(1)
		w.U32(uint32(len(p.Lin)))
		for i := range p.Lin {
			w.U8(uint8(p.Lin[i].Sense))
			w.F64s(p.Lin[i].Coeffs)
			w.F64(p.Lin[i].RHS)
		}
	}
	if p.Quad == nil {
		w.U8(0)
	} else {
		w.U8(1)
		w.U32(uint32(len(p.Quad)))
		for i := range p.Quad {
			w.U8(uint8(p.Quad[i].Sense))
			writeWireMatrix(w, p.Quad[i].P)
			w.F64s(p.Quad[i].Q)
			w.F64(p.Quad[i].R)
		}
	}
	if p.Bilin == nil {
		w.U8(0)
	} else {
		w.U8(1)
		w.U32(uint32(len(p.Bilin)))
		for i := range p.Bilin {
			w.I64(int64(p.Bilin[i].W))
			w.I64(int64(p.Bilin[i].X))
			w.I64(int64(p.Bilin[i].Y))
		}
	}
}

// writeWireMatrix encodes a matrix with a nil flag, its dimensions, and its
// row-major data (length implied by the dimensions).
func writeWireMatrix(w *wire.Writer, m *mat.Matrix) {
	if m == nil {
		w.U8(0)
		return
	}
	w.U8(1)
	w.U32(uint32(m.Rows))
	w.U32(uint32(m.Cols))
	for _, v := range m.Data {
		w.F64(v)
	}
}

// readWireMatrix decodes a matrix, reusing into's backing array when its
// capacity suffices.
func readWireMatrix(r *wire.Reader, into *mat.Matrix) *mat.Matrix {
	switch r.U8() {
	case 0:
		return nil
	case 1:
	default:
		r.Corruptf("matrix flag out of range")
		return nil
	}
	rows := int(r.U32())
	cols := int(r.U32())
	// Bound the element count by the bytes actually present before any
	// multiplication can overflow or allocate.
	if uint64(rows)*uint64(cols) > uint64(r.Remaining())/8 {
		r.Corruptf("matrix %dx%d exceeds remaining payload", rows, cols)
		return nil
	}
	var dst []float64
	if into != nil {
		dst = into.Data
	}
	data := r.F64sN(rows*cols, dst)
	if r.Err() != nil {
		return nil
	}
	if into == nil {
		into = &mat.Matrix{}
	}
	into.Rows, into.Cols, into.Data = rows, cols, data
	return into
}

// DecodeProblem decodes a framed Problem from data, reusing into's backing
// storage when possible (pass nil to allocate fresh). The decode is strict:
// trailing bytes, structural violations, and any mismatch between the
// decoded problem's fingerprints and the frame header are typed errors. On
// error the returned problem is nil and into's contents are unspecified.
func DecodeProblem(data []byte, into *Problem) (*Problem, error) {
	h, payload, err := openExactFrame(data, wire.KindProblem)
	if err != nil {
		return nil, err
	}
	p := into
	if p == nil {
		p = &Problem{}
	}
	r := wire.NewReader(payload)
	p.decodeWirePayload(&r)
	if err := r.Err(); err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", wire.ErrCorrupt, r.Remaining())
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", wire.ErrCorrupt, err)
	}
	if fp := p.Fingerprint(); fp.Shape != h.Shape || fp.Content != h.Content {
		return nil, fmt.Errorf("%w: decoded %x/%x, header %x/%x",
			wire.ErrFingerprint, fp.Shape, fp.Content, h.Shape, h.Content)
	}
	return p, nil
}

// openExactFrame opens the frame at data, requiring the expected kind and
// that the frame spans data exactly (no trailing bytes).
func openExactFrame(data []byte, kind uint16) (wire.Header, []byte, error) {
	n, err := wire.FrameLen(data)
	if err != nil {
		return wire.Header{}, nil, err
	}
	if n != len(data) {
		return wire.Header{}, nil, fmt.Errorf("%w: %d trailing bytes after frame", wire.ErrCorrupt, len(data)-n)
	}
	h, payload, err := wire.OpenFrame(data)
	if err != nil {
		return wire.Header{}, nil, err
	}
	if h.Kind != kind {
		return wire.Header{}, nil, fmt.Errorf("%w: frame kind %d, want %d", wire.ErrCorrupt, h.Kind, kind)
	}
	return h, payload, nil
}

func (p *Problem) decodeWirePayload(r *wire.Reader) {
	switch r.U8() {
	case wireTagMatrix:
		m := p.Matrix
		if m == nil {
			m = &MatrixBlock{}
		}
		m.Dim = int(r.I64())
		m.Obj = MatrixObj(r.U8())
		m.PSD = r.Bool()
		m.C = readWireMatrix(r, m.C)
		switch r.U8() {
		case 0:
			m.A = nil
		case 1:
			n := int(r.U32())
			if n > r.Remaining() {
				r.Corruptf("%d constraint matrices exceed remaining payload", n)
				return
			}
			if cap(m.A) >= n {
				m.A = m.A[:n]
			} else {
				m.A = make([]*mat.Matrix, n)
			}
			if m.A == nil {
				m.A = []*mat.Matrix{}
			}
			for i := range m.A {
				m.A[i] = readWireMatrix(r, m.A[i])
			}
		default:
			r.Corruptf("matrix constraint flag out of range")
			return
		}
		m.B = r.F64s(m.B)
		// A matrix problem carries no vector fields.
		p.NumVars = 0
		p.Obj = Objective{}
		p.Lo, p.Hi, p.Integer = nil, nil, nil
		p.Lin, p.Quad, p.Bilin = nil, nil, nil
		p.Matrix = m
	case wireTagVector:
		p.Matrix = nil
		p.NumVars = int(r.I64())
		p.Obj.Maximize = r.Bool()
		p.Obj.Lin = r.F64s(p.Obj.Lin)
		p.Obj.Quad = readWireMatrix(r, p.Obj.Quad)
		p.Obj.Const = r.F64()
		p.Lo = r.F64s(p.Lo)
		p.Hi = r.F64s(p.Hi)
		p.Integer = r.Ints(p.Integer)
		switch r.U8() {
		case 0:
			p.Lin = nil
		case 1:
			n := int(r.U32())
			if n > r.Remaining() {
				r.Corruptf("%d linear rows exceed remaining payload", n)
				return
			}
			if cap(p.Lin) >= n {
				p.Lin = p.Lin[:n]
			} else {
				p.Lin = make([]LinCon, n)
			}
			if p.Lin == nil {
				p.Lin = []LinCon{}
			}
			for i := range p.Lin {
				p.Lin[i].Sense = Sense(r.U8())
				p.Lin[i].Coeffs = r.F64s(p.Lin[i].Coeffs)
				p.Lin[i].RHS = r.F64()
			}
		default:
			r.Corruptf("linear row flag out of range")
			return
		}
		switch r.U8() {
		case 0:
			p.Quad = nil
		case 1:
			n := int(r.U32())
			if n > r.Remaining() {
				r.Corruptf("%d quadratic rows exceed remaining payload", n)
				return
			}
			if cap(p.Quad) >= n {
				p.Quad = p.Quad[:n]
			} else {
				p.Quad = make([]QuadCon, n)
			}
			if p.Quad == nil {
				p.Quad = []QuadCon{}
			}
			for i := range p.Quad {
				p.Quad[i].Sense = Sense(r.U8())
				p.Quad[i].P = readWireMatrix(r, p.Quad[i].P)
				p.Quad[i].Q = r.F64s(p.Quad[i].Q)
				p.Quad[i].R = r.F64()
			}
		default:
			r.Corruptf("quadratic row flag out of range")
			return
		}
		switch r.U8() {
		case 0:
			p.Bilin = nil
		case 1:
			n := int(r.U32())
			if n > r.Remaining() {
				r.Corruptf("%d bilinear rows exceed remaining payload", n)
				return
			}
			if cap(p.Bilin) >= n {
				p.Bilin = p.Bilin[:n]
			} else {
				p.Bilin = make([]Bilinear, n)
			}
			if p.Bilin == nil {
				p.Bilin = []Bilinear{}
			}
			for i := range p.Bilin {
				p.Bilin[i].W = int(r.I64())
				p.Bilin[i].X = int(r.I64())
				p.Bilin[i].Y = int(r.I64())
			}
		default:
			r.Corruptf("bilinear row flag out of range")
			return
		}
	default:
		r.Corruptf("problem kind tag out of range")
	}
}

// WriteTo writes p's framed encoding to dst, implementing io.WriterTo.
func (p *Problem) WriteTo(dst io.Writer) (int64, error) {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	p.EncodeWire(w)
	n, err := dst.Write(w.Bytes())
	return int64(n), err
}

// ReadFrom reads one framed Problem from src into p, implementing
// io.ReaderFrom. It buffers exactly one frame (bounded by maxWireFrame)
// and then decodes it with DecodeProblem's full validation.
func (p *Problem) ReadFrom(src io.Reader) (int64, error) {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	n, err := readFrameInto(w, src)
	if err != nil {
		return n, err
	}
	if _, err := DecodeProblem(w.Bytes(), p); err != nil {
		return n, err
	}
	return n, nil
}

// readFrameInto reads one complete frame from src into w's buffer.
func readFrameInto(w *wire.Writer, src io.Reader) (int64, error) {
	hdr := w.Extend(wire.HeaderSize)
	n, err := io.ReadFull(src, hdr)
	if err != nil {
		return int64(n), fmt.Errorf("%w: reading frame header: %v", wire.ErrTruncated, err)
	}
	plen := binary.LittleEndian.Uint64(hdr[24:32])
	if plen > maxWireFrame {
		return int64(n), fmt.Errorf("%w: frame payload claims %d bytes", wire.ErrCorrupt, plen)
	}
	rest := w.Extend(int(plen) + wire.ChecksumSize)
	m, err := io.ReadFull(src, rest)
	if err != nil {
		return int64(n + m), fmt.Errorf("%w: reading frame body: %v", wire.ErrTruncated, err)
	}
	return int64(n + m), nil
}

// EncodeWire appends res's complete framed encoding to w. The header
// carries fp, the fingerprint of the problem this result solves (pass the
// zero Fingerprint when untracked); DecodeResult returns it alongside the
// result so a coordinator can match results back to requests.
func (res *Result) EncodeWire(w *wire.Writer, fp Fingerprint) {
	start := w.BeginFrame(wire.Header{Kind: wire.KindResult, Shape: fp.Shape, Content: fp.Content})
	res.encodeWirePayload(w)
	w.EndFrame(start)
}

func (res *Result) encodeWirePayload(w *wire.Writer) {
	w.F64s(res.X)
	writeWireMatrix(w, res.XMat)
	w.F64(res.Objective)
	w.I64(int64(res.Status))
	w.String(res.Backend)
	if res.Trail == nil {
		w.U8(0)
	} else {
		w.U8(1)
		w.U32(uint32(len(res.Trail)))
		for _, s := range res.Trail {
			w.String(s)
		}
	}
	w.Bool(res.CacheHit)
	w.U8(0) // retired warm-start flag: always 0 in wire Version 1
	w.F64(res.Residual)
	w.F64(res.Gap)
	if res.Cert == nil {
		w.U8(0)
		return
	}
	w.U8(1)
	w.U8(uint8(res.Cert.Verdict))
	w.I64(int64(res.Cert.Retries))
	if res.Cert.Checks == nil {
		w.U8(0)
		return
	}
	w.U8(1)
	w.U32(uint32(len(res.Cert.Checks)))
	for _, c := range res.Cert.Checks {
		w.String(c.Name)
		w.F64(c.Value)
		w.F64(c.Tol)
		w.Bool(c.OK)
	}
}

// DecodeResult decodes a framed Result from data, reusing into when
// non-nil, and returns the problem fingerprint recorded in the frame
// header. Backend sub-results (LP/MILP/QP/SDP) are never on the wire and
// come back nil.
func DecodeResult(data []byte, into *Result) (*Result, Fingerprint, error) {
	h, payload, err := openExactFrame(data, wire.KindResult)
	if err != nil {
		return nil, Fingerprint{}, err
	}
	res := into
	if res == nil {
		res = &Result{}
	}
	r := wire.NewReader(payload)
	res.decodeWirePayload(&r)
	if err := r.Err(); err != nil {
		return nil, Fingerprint{}, err
	}
	if r.Remaining() != 0 {
		return nil, Fingerprint{}, fmt.Errorf("%w: %d trailing payload bytes", wire.ErrCorrupt, r.Remaining())
	}
	return res, Fingerprint{Shape: h.Shape, Content: h.Content}, nil
}

func (res *Result) decodeWirePayload(r *wire.Reader) {
	res.X = r.F64s(res.X)
	res.XMat = readWireMatrix(r, res.XMat)
	res.Objective = r.F64()
	status := r.I64()
	if status < 0 || status > 255 {
		r.Corruptf("status %d out of range", status)
		return
	}
	res.Status = guard.Status(status)
	res.Backend = r.String()
	switch r.U8() {
	case 0:
		res.Trail = nil
	case 1:
		n := int(r.U32())
		if n > r.Remaining() {
			r.Corruptf("%d trail entries exceed remaining payload", n)
			return
		}
		res.Trail = make([]string, n)
		for i := range res.Trail {
			res.Trail[i] = r.String()
		}
	default:
		r.Corruptf("trail flag out of range")
		return
	}
	res.CacheHit = r.Bool()
	if r.U8() != 0 {
		r.Corruptf("retired warm-start flag set")
		return
	}
	res.Residual = r.F64()
	res.Gap = r.F64()
	res.LP, res.MILP, res.QP, res.SDP = nil, nil, nil, nil
	switch r.U8() {
	case 0:
		res.Cert = nil
		return
	case 1:
	default:
		r.Corruptf("cert flag out of range")
		return
	}
	c := &cert.Certificate{}
	verdict := r.U8()
	if verdict > uint8(cert.VerdictFail) {
		r.Corruptf("cert verdict %d out of range", verdict)
		return
	}
	c.Verdict = cert.Verdict(verdict)
	c.Retries = int(r.I64())
	switch r.U8() {
	case 0:
		c.Checks = nil
	case 1:
		n := int(r.U32())
		if n > r.Remaining() {
			r.Corruptf("%d cert checks exceed remaining payload", n)
			return
		}
		c.Checks = make([]cert.Check, n)
		for i := range c.Checks {
			c.Checks[i].Name = r.String()
			c.Checks[i].Value = r.F64()
			c.Checks[i].Tol = r.F64()
			c.Checks[i].OK = r.Bool()
		}
	default:
		r.Corruptf("cert checks flag out of range")
		return
	}
	res.Cert = c
}

// WriteTo writes res's framed encoding (with a zero problem fingerprint)
// to dst, implementing io.WriterTo. Callers tracking the solved problem
// should prefer EncodeWire with its fingerprint.
func (res *Result) WriteTo(dst io.Writer) (int64, error) {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	res.EncodeWire(w, Fingerprint{})
	n, err := dst.Write(w.Bytes())
	return int64(n), err
}

// ReadFrom reads one framed Result from src into res, implementing
// io.ReaderFrom.
func (res *Result) ReadFrom(src io.Reader) (int64, error) {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	n, err := readFrameInto(w, src)
	if err != nil {
		return n, err
	}
	if _, _, err := DecodeResult(w.Bytes(), res); err != nil {
		return n, err
	}
	return n, nil
}
