package prob_test

import (
	"reflect"
	"testing"

	"repro/internal/mat"
	"repro/internal/prob"
	"repro/internal/rng"
	"repro/internal/sdp"
)

// These tests pin the bit-faithfulness promise in compile.go: a Problem
// stated through the IR compiles to structures element-identical to the
// hand-built backend problems the call sites used before the migration. Any
// drift here silently changes EXPERIMENTS.md numbers, so everything is
// compared with == on the raw float data, never with tolerances.

// seededSymmetric builds a deterministic symmetric matrix with unit diagonal
// dominance, mimicking a spatial correlation matrix Rs.
func seededSymmetric(n int, seed uint64) *mat.Matrix {
	r := rng.New(seed)
	m := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := r.Float64()
			if i == j {
				v += float64(n)
			}
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

// TestGoldenTraceMinSDP pins the full Eq. 8 → 9 → 10 lowering of the
// diagonal-plus-low-rank RMP against the sdp.Problem that
// DecomposeDiagLowRank historically hand-assembled: C = I, one
// BasisElem pin per off-diagonal entry in (i<j) row-major order, B holding
// the Rs values verbatim.
func TestGoldenTraceMinSDP(t *testing.T) {
	const n = 5
	rs := seededSymmetric(n, 42)

	rmp, err := prob.NewDiagLowRankRMP(rs)
	if err != nil {
		t.Fatal(err)
	}
	std, _, err := prob.Lower(rmp, prob.TraceSurrogate, prob.ToSDP)
	if err != nil {
		t.Fatal(err)
	}
	got, err := std.SDP()
	if err != nil {
		t.Fatal(err)
	}

	// The hand-built form, reproduced from the seed implementation.
	want := &sdp.Problem{C: mat.Identity(n)}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			want.A = append(want.A, sdp.BasisElem(n, i, j))
			want.B = append(want.B, rs.At(i, j))
		}
	}

	if !reflect.DeepEqual(got.C, want.C) {
		t.Errorf("C differs:\ngot  %v\nwant %v", got.C.Data, want.C.Data)
	}
	if len(got.A) != len(want.A) || len(got.B) != len(want.B) {
		t.Fatalf("constraint count: got %d/%d, want %d/%d", len(got.A), len(got.B), len(want.A), len(want.B))
	}
	for k := range want.A {
		if !reflect.DeepEqual(got.A[k].Data, want.A[k].Data) {
			t.Errorf("A[%d] differs:\ngot  %v\nwant %v", k, got.A[k].Data, want.A[k].Data)
		}
		if got.B[k] != want.B[k] {
			t.Errorf("B[%d] = %v, want %v (exact)", k, got.B[k], want.B[k])
		}
	}
}

// TestGoldenLPCompile pins the maximize-negation and bounds conventions of
// the LP compiler: the compiled lp.Problem must match a hand-negated one
// bit for bit, sharing the lp nil-bounds convention.
func TestGoldenLPCompile(t *testing.T) {
	rates := []float64{1.25e6, 3.5e6, 0.75e6}
	ir := &prob.Problem{
		NumVars: 3,
		Obj:     prob.Objective{Maximize: true, Lin: rates},
		Lo:      []float64{0, 0, 0},
		Hi:      []float64{1, 1, 1},
		Lin: []prob.LinCon{
			{Coeffs: []float64{1, 1, 0}, Sense: prob.LE, RHS: 1},
			{Coeffs: []float64{0.5, 0.2, 0.8}, Sense: prob.LE, RHS: 2},
			{Coeffs: rates, Sense: prob.GE, RHS: 1e6},
		},
	}
	got, err := ir.LP()
	if err != nil {
		t.Fatal(err)
	}
	neg := make([]float64, len(rates))
	for i, r := range rates {
		neg[i] = -r
	}
	want := &lpReplica{
		numVars:   3,
		objective: neg,
		lo:        []float64{0, 0, 0},
		hi:        []float64{1, 1, 1},
	}
	if got.NumVars != want.numVars ||
		!reflect.DeepEqual(got.Objective, want.objective) ||
		!reflect.DeepEqual(got.Lo, want.lo) ||
		!reflect.DeepEqual(got.Hi, want.hi) {
		t.Fatalf("compiled LP header differs: %+v", got)
	}
	if len(got.Constraints) != 3 {
		t.Fatalf("constraint count %d, want 3", len(got.Constraints))
	}
	for i, c := range ir.Lin {
		if !reflect.DeepEqual(got.Constraints[i].Coeffs, c.Coeffs) || got.Constraints[i].RHS != c.RHS {
			t.Errorf("row %d drifted: %+v vs %+v", i, got.Constraints[i], c)
		}
	}
}

// lpReplica holds the expected compiled header fields (a plain struct so the
// test reads as the seed's literal construction).
type lpReplica struct {
	numVars   int
	objective []float64
	lo, hi    []float64
}

// TestGoldenRecoveryRoundTrip pins the LiftRank recovery on a hand-built
// rank-one certificate: lifting Y = [1 xᵀ; x xxᵀ] must return exactly x and
// the exactly re-evaluated QCQP objective — the round trip the paper's
// Eq. 8 exactness argument rests on.
func TestGoldenRecoveryRoundTrip(t *testing.T) {
	p := &prob.Problem{
		NumVars: 2,
		Obj: prob.Objective{
			Quad:  mustMat(t, [][]float64{{2, 0}, {0, 4}}),
			Lin:   []float64{1, -1},
			Const: 0.5,
		},
		Lin: []prob.LinCon{{Coeffs: []float64{1, 1}, Sense: prob.EQ, RHS: 5}},
	}
	_, rec, err := prob.LiftRank(p)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{2, 3}
	y := mustMat(t, [][]float64{
		{1, x[0], x[1]},
		{x[0], x[0] * x[0], x[0] * x[1]},
		{x[1], x[0] * x[1], x[1] * x[1]},
	})
	res := rec.Lift(&prob.Result{XMat: y})
	if res.XMat != nil {
		t.Fatal("recovery left the matrix solution in place")
	}
	if !reflect.DeepEqual(res.X, x) {
		t.Fatalf("recovered x = %v, want %v (exact)", res.X, x)
	}
	// ½xᵀPx + qᵀx + c = ½(2·4 + 4·9) + (2 - 3) + 0.5 = 21.5, exactly.
	if want := 21.5; res.Objective != want {
		t.Fatalf("re-evaluated objective = %v, want %v (exact)", res.Objective, want)
	}
	// A scaled certificate Y₀₀ = s must divide out exactly: x = Y₍ⱼ₊₁₎₀/Y₀₀.
	s := 4.0
	ys := y.Clone().Scale(s)
	res = rec.Lift(&prob.Result{XMat: ys})
	if !reflect.DeepEqual(res.X, x) {
		t.Fatalf("scaled certificate recovered x = %v, want %v", res.X, x)
	}
}
