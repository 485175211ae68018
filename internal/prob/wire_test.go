package prob_test

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/guard"
	"repro/internal/mat"
	"repro/internal/prob"
	"repro/internal/rng"
	"repro/internal/wire"
)

// wireMILP builds the seeded qos column-generation MILP used across the
// wire tests: binary user-RB-level assignment variables under a power
// budget and per-user minimum rates (the rcrbench qos workload shape).
func wireMILP(seed uint64, jitter float64) *prob.Problem {
	r := rng.New(seed)
	const nU, nRB, nL = 2, 4, 2
	n := nU * nRB * nL
	levels := []float64{0.1, 0.2}
	p := &prob.Problem{NumVars: n, Hi: make([]float64, n)}
	p.Obj.Maximize = true
	p.Obj.Lin = make([]float64, n)
	for u := 0; u < nU; u++ {
		for b := 0; b < nRB; b++ {
			for l := 0; l < nL; l++ {
				i := (u*nRB+b)*nL + l
				p.Obj.Lin[i] = (1 + levels[l]) * (1 + jitter*r.Float64())
				p.Hi[i] = 1
				p.Integer = append(p.Integer, i)
			}
		}
	}
	for b := 0; b < nRB; b++ {
		row := prob.LinCon{Coeffs: make([]float64, n), Sense: prob.LE, RHS: 1}
		for u := 0; u < nU; u++ {
			for l := 0; l < nL; l++ {
				row.Coeffs[(u*nRB+b)*nL+l] = 1
			}
		}
		p.Lin = append(p.Lin, row)
	}
	for u := 0; u < nU; u++ {
		pow := prob.LinCon{Coeffs: make([]float64, n), Sense: prob.LE, RHS: 0.5}
		rate := prob.LinCon{Coeffs: make([]float64, n), Sense: prob.GE, RHS: 0.5}
		for b := 0; b < nRB; b++ {
			for l := 0; l < nL; l++ {
				i := (u*nRB+b)*nL + l
				pow.Coeffs[i] = levels[l]
				rate.Coeffs[i] = 1 + levels[l]
			}
		}
		p.Lin = append(p.Lin, pow, rate)
	}
	return p
}

// wireFixtureProblems returns named problems covering every payload shape:
// the three pinned lowered families (trace-min, SDP, qos MILP) plus
// quadratic, bilinear, and bound-edge variants.
func wireFixtureProblems(t *testing.T) map[string]*prob.Problem {
	t.Helper()
	rs := seededSymmetric(5, 42)
	rmp, err := prob.NewDiagLowRankRMP(rs)
	if err != nil {
		t.Fatal(err)
	}
	tracemin, _, err := prob.Lower(rmp, prob.TraceSurrogate)
	if err != nil {
		t.Fatal(err)
	}
	sdpP, _, err := prob.Lower(rmp, prob.TraceSurrogate, prob.ToSDP)
	if err != nil {
		t.Fatal(err)
	}
	quad := &prob.Problem{
		NumVars: 3,
		Obj: prob.Objective{
			Lin:   []float64{1, -2, 0.5},
			Quad:  &mat.Matrix{Rows: 3, Cols: 3, Data: []float64{2, 0, 0, 0, 2, 0, 0, 0, 2}},
			Const: -1.25,
		},
		Lo: []float64{math.Inf(-1), -5, 0},
		Hi: []float64{math.Inf(1), 5, 10},
		Quad: []prob.QuadCon{{
			P:     &mat.Matrix{Rows: 3, Cols: 3, Data: []float64{1, 0, 0, 0, 1, 0, 0, 0, 1}},
			Q:     []float64{0, 1, 0},
			R:     -4,
			Sense: prob.LE,
		}},
	}
	bilin := &prob.Problem{
		NumVars: 3,
		Obj:     prob.Objective{Lin: []float64{1, 1, 1}},
		Lo:      []float64{0, 0, 0},
		Hi:      []float64{1, 1, 1},
		Bilin:   []prob.Bilinear{{W: 2, X: 0, Y: 1}},
	}
	return map[string]*prob.Problem{
		"tracemin":  tracemin,
		"sdp":       sdpP,
		"qos_milp":  wireMILP(7, 0.25),
		"quadratic": quad,
		"bilinear":  bilin,
	}
}

func TestProblemWireRoundTrip(t *testing.T) {
	for name, p := range wireFixtureProblems(t) {
		t.Run(name, func(t *testing.T) {
			w := wire.GetWriter()
			defer wire.PutWriter(w)
			p.EncodeWire(w)
			got, err := prob.DecodeProblem(w.Bytes(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, p) {
				t.Errorf("decode(encode(p)) is not element-identical:\ngot  %+v\nwant %+v", got, p)
			}
		})
	}
}

func TestProblemWireToFromStream(t *testing.T) {
	p := wireMILP(3, 0.5)
	var buf bytes.Buffer
	n, err := p.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var got prob.Problem
	m, err := got.ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m != n {
		t.Errorf("ReadFrom consumed %d bytes, WriteTo wrote %d", m, n)
	}
	if !reflect.DeepEqual(&got, p) {
		t.Errorf("stream round trip drifted:\ngot  %+v\nwant %+v", &got, p)
	}
	// Truncated streams fail typed.
	var half prob.Problem
	if _, err := half.ReadFrom(bytes.NewReader(nil)); !errors.Is(err, wire.ErrTruncated) {
		t.Errorf("empty stream: err = %v, want ErrTruncated", err)
	}
}

func TestProblemDecodeReuseIsAllocationFree(t *testing.T) {
	p := wireMILP(11, 0.25)
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	p.EncodeWire(w)
	data := append([]byte(nil), w.Bytes()...)

	scratch, err := prob.DecodeProblem(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		scratch, err = prob.DecodeProblem(data, scratch)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state decode allocates %v/op, want 0", allocs)
	}
	if !reflect.DeepEqual(scratch, p) {
		t.Fatal("reused decode drifted from source problem")
	}
}

func TestProblemEncodeReuseIsAllocationFree(t *testing.T) {
	p := wireMILP(11, 0.25)
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	p.EncodeWire(w) // warm the buffer
	allocs := testing.AllocsPerRun(200, func() {
		w.Reset()
		p.EncodeWire(w)
	})
	if allocs != 0 {
		t.Fatalf("steady-state encode allocates %v/op, want 0", allocs)
	}
}

func TestResultWireRoundTrip(t *testing.T) {
	res, err := prob.Solve(wireMILP(5, 0.25), prob.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != guard.StatusConverged {
		t.Fatalf("fixture solve status %v", res.Status)
	}
	// Backend sub-results are deliberately not on the wire; compare the
	// serialized contract.
	res.LP, res.MILP, res.QP, res.SDP = nil, nil, nil, nil

	fp := wireMILP(5, 0.25).Fingerprint()
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	res.EncodeWire(w, fp)
	got, gotFP, err := prob.DecodeResult(w.Bytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if gotFP != fp {
		t.Errorf("header fingerprint %x/%x, want %x/%x", gotFP.Shape, gotFP.Content, fp.Shape, fp.Content)
	}
	if !reflect.DeepEqual(got, res) {
		t.Errorf("decode(encode(res)) is not element-identical:\ngot  %+v\nwant %+v", got, res)
	}

	var buf bytes.Buffer
	if _, err := res.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var streamed prob.Result
	if _, err := streamed.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&streamed, res) {
		t.Error("stream round trip drifted")
	}
}

func TestDecodeProblemTypedFailures(t *testing.T) {
	p := wireMILP(2, 0.25)
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	p.EncodeWire(w)
	good := append([]byte(nil), w.Bytes()...)

	t.Run("kind mismatch", func(t *testing.T) {
		rw := wire.GetWriter()
		defer wire.PutWriter(rw)
		(&prob.Result{Backend: "minlp"}).EncodeWire(rw, prob.Fingerprint{})
		if _, err := prob.DecodeProblem(rw.Bytes(), nil); !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("result frame decoded as problem: %v", err)
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		padded := append(append([]byte(nil), good...), 0)
		if _, err := prob.DecodeProblem(padded, nil); !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("checksum", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[wire.HeaderSize+9] ^= 0x10
		if _, err := prob.DecodeProblem(bad, nil); !errors.Is(err, wire.ErrChecksum) {
			t.Errorf("err = %v, want ErrChecksum", err)
		}
	})
	t.Run("fingerprint", func(t *testing.T) {
		// Repair the checksum after flipping a payload float so the frame
		// is internally consistent but no longer matches its header
		// fingerprints: only the decoded-object re-fingerprint catches it.
		bad := append([]byte(nil), good...)
		i := len(bad) - 16 // inside the last float of the payload
		bad[i] ^= 0x04
		body := bad[:len(bad)-wire.ChecksumSize]
		sum := wire.Checksum(body)
		for j := 0; j < 8; j++ {
			bad[len(body)+j] = byte(sum >> (8 * j))
		}
		_, err := prob.DecodeProblem(bad, nil)
		if !errors.Is(err, wire.ErrFingerprint) {
			t.Errorf("err = %v, want ErrFingerprint", err)
		}
	})
}
