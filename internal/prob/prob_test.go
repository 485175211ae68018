package prob_test

import (
	"errors"
	"math"
	"testing"

	"repro/internal/guard"
	"repro/internal/mat"
	"repro/internal/prob"
	"repro/internal/relax"
)

func mustMat(t *testing.T, rows [][]float64) *mat.Matrix {
	t.Helper()
	m, err := mat.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestClassify(t *testing.T) {
	quad := mustMat(t, [][]float64{{1}})
	cases := []struct {
		name string
		p    *prob.Problem
		want prob.Class
	}{
		{"lp", &prob.Problem{NumVars: 1, Obj: prob.Objective{Lin: []float64{1}}}, prob.ClassLP},
		{"milp", &prob.Problem{NumVars: 1, Integer: []int{0}}, prob.ClassMILP},
		{"qcqp-obj", &prob.Problem{NumVars: 1, Obj: prob.Objective{Quad: quad}}, prob.ClassQCQP},
		{"qcqp-con", &prob.Problem{NumVars: 1, Quad: []prob.QuadCon{{Q: []float64{1}, Sense: prob.LE}}}, prob.ClassQCQP},
		{"qcqp-bilin", &prob.Problem{NumVars: 3, Bilin: []prob.Bilinear{{W: 2, X: 0, Y: 1}}}, prob.ClassQCQP},
		{"minlp", &prob.Problem{NumVars: 1, Integer: []int{0}, Obj: prob.Objective{Quad: quad}}, prob.ClassMINLP},
		{"rmp", &prob.Problem{Matrix: &prob.MatrixBlock{Dim: 2, Obj: prob.MatrixObjRank, PSD: true}}, prob.ClassRMP},
		{"tmp", &prob.Problem{Matrix: &prob.MatrixBlock{Dim: 2, Obj: prob.MatrixObjTrace, PSD: true}}, prob.ClassTMP},
		{"sdp", &prob.Problem{Matrix: &prob.MatrixBlock{Dim: 2, Obj: prob.MatrixObjInner, PSD: true}}, prob.ClassSDP},
	}
	for _, c := range cases {
		if got := c.p.Classify(); got != c.want {
			t.Errorf("%s: Classify() = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	id2 := mat.Identity(2)
	cases := []struct {
		name string
		p    *prob.Problem
	}{
		{"matrix+vector", &prob.Problem{NumVars: 1, Matrix: &prob.MatrixBlock{Dim: 2, Obj: prob.MatrixObjRank}}},
		{"obj too long", &prob.Problem{NumVars: 1, Obj: prob.Objective{Lin: []float64{1, 2}}}},
		{"lo length", &prob.Problem{NumVars: 2, Lo: []float64{0}}},
		{"row too long", &prob.Problem{NumVars: 1, Lin: []prob.LinCon{{Coeffs: []float64{1, 2}, Sense: prob.LE}}}},
		{"bad sense", &prob.Problem{NumVars: 1, Lin: []prob.LinCon{{Coeffs: []float64{1}, Sense: prob.Sense(7)}}}},
		{"quad GE", &prob.Problem{NumVars: 1, Quad: []prob.QuadCon{{Q: []float64{1}, Sense: prob.GE}}}},
		{"integer range", &prob.Problem{NumVars: 1, Integer: []int{1}}},
		{"bilinear range", &prob.Problem{NumVars: 2, Bilin: []prob.Bilinear{{W: 0, X: 1, Y: 2}}}},
		{"matrix dim", &prob.Problem{Matrix: &prob.MatrixBlock{Dim: 0, Obj: prob.MatrixObjRank}}},
		{"matrix a/b mismatch", &prob.Problem{Matrix: &prob.MatrixBlock{Dim: 2, Obj: prob.MatrixObjRank, A: []*mat.Matrix{id2}}}},
		{"inner without C", &prob.Problem{Matrix: &prob.MatrixBlock{Dim: 2, Obj: prob.MatrixObjInner}}},
	}
	for _, c := range cases {
		if err := c.p.Validate(); !errors.Is(err, prob.ErrBadProblem) {
			t.Errorf("%s: Validate() = %v, want ErrBadProblem", c.name, err)
		}
	}
}

// TestMcCormickMatchesRelax pins the pass's row translation of the
// relax.McCormick envelopes: each of the four planes a·x + b·y + c must
// reappear, in order, as the IR row w - a·x - b·y (sense) c with
// bitwise-equal coefficients.
func TestMcCormickMatchesRelax(t *testing.T) {
	boxes := []struct{ xlo, xhi, ylo, yhi float64 }{
		{0, 1, 0, 1},
		{-2, 3, 0.5, 4},
		{-1.25, -0.25, -3, 2},
		{0, 0, 1, 1}, // degenerate box
	}
	for _, bx := range boxes {
		p := &prob.Problem{
			NumVars: 3,
			Lo:      []float64{bx.xlo, bx.ylo, math.Inf(-1)},
			Hi:      []float64{bx.xhi, bx.yhi, math.Inf(1)},
			Bilin:   []prob.Bilinear{{W: 2, X: 0, Y: 1}},
		}
		q, rec, err := prob.McCormick(p)
		if err != nil {
			t.Fatalf("box %+v: McCormick pass: %v", bx, err)
		}
		under, over, err := relax.McCormick(relax.Interval{Lo: bx.xlo, Hi: bx.xhi}, relax.Interval{Lo: bx.ylo, Hi: bx.yhi})
		if err != nil {
			t.Fatalf("box %+v: relax.McCormick: %v", bx, err)
		}
		planes := append(append([]relax.Affine2(nil), under...), over...)
		senses := []prob.Sense{prob.GE, prob.GE, prob.LE, prob.LE}
		if len(q.Bilin) != 0 {
			t.Fatalf("box %+v: bilinear block survived the pass", bx)
		}
		if len(q.Lin) != 4 {
			t.Fatalf("box %+v: got %d envelope rows, want 4", bx, len(q.Lin))
		}
		for i, row := range q.Lin {
			pl := planes[i]
			want := []float64{-pl.A, -pl.B, 1}
			for j, v := range want {
				if row.Coeffs[j] != v {
					t.Errorf("box %+v row %d: coeff[%d] = %g, want %g", bx, i, j, row.Coeffs[j], v)
				}
			}
			if row.RHS != pl.C || row.Sense != senses[i] {
				t.Errorf("box %+v row %d: (rhs %g, %v), want (%g, %v)", bx, i, row.RHS, row.Sense, pl.C, senses[i])
			}
		}
		// The recovery restores the exact bilinear equality.
		res := rec.Lift(&prob.Result{X: []float64{0.5, -1.5, 99}})
		if got, want := res.X[2], 0.5*-1.5; got != want {
			t.Errorf("box %+v: recovery w = %g, want %g", bx, got, want)
		}
	}
	// Infinite bounds on a bilinear factor must be rejected by the pass
	// itself: relax.McCormick accepts them and would emit Inf coefficients.
	bad := &prob.Problem{NumVars: 3, Bilin: []prob.Bilinear{{W: 2, X: 0, Y: 1}}}
	if _, _, err := prob.McCormick(bad); !errors.Is(err, prob.ErrBadProblem) {
		t.Fatalf("unbounded factor: err = %v, want ErrBadProblem", err)
	}
	// An empty factor box is relax.McCormick's refusal, typed as a bad
	// problem.
	empty := &prob.Problem{NumVars: 3, Lo: []float64{1, 0, math.Inf(-1)}, Hi: []float64{0, 1, math.Inf(1)},
		Bilin: []prob.Bilinear{{W: 2, X: 0, Y: 1}}}
	if _, _, err := prob.McCormick(empty); !errors.Is(err, prob.ErrBadProblem) || !errors.Is(err, relax.ErrBadInterval) {
		t.Fatalf("empty factor box: err = %v, want ErrBadProblem and relax.ErrBadInterval", err)
	}
}

func TestRelaxIntegralityRecovery(t *testing.T) {
	p := &prob.Problem{
		NumVars: 3,
		Obj:     prob.Objective{Maximize: true, Lin: []float64{1, 1, 1}},
		Hi:      []float64{1, 2, 5},
		Integer: []int{0, 1},
	}
	q, rec, err := prob.RelaxIntegrality(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Integer) != 0 {
		t.Fatalf("relaxed problem keeps integrality marks %v", q.Integer)
	}
	if q.Classify() != prob.ClassLP {
		t.Fatalf("relaxed class = %v, want LP", q.Classify())
	}
	if len(p.Integer) != 2 {
		t.Fatal("pass mutated its input")
	}
	// Rounding clips into the original box: 2.7 rounds to 3, clipped to Hi=2;
	// the continuous coordinate is untouched.
	res := rec.Lift(&prob.Result{X: []float64{0.49, 2.7, 3.14}})
	want := []float64{0, 2, 3.14}
	for j, v := range want {
		if res.X[j] != v {
			t.Errorf("lifted X[%d] = %g, want %g", j, res.X[j], v)
		}
	}
}

// TestLiftRankRoundTrip drives the full Eq. 7→10 chain on a QCQP whose
// answer is known in closed form: min ½x² subject to x = 2. LiftRank states
// the RMP; Solve applies TraceSurrogate and ToSDP implicitly, runs the sdp
// backend, and the caller-held recovery lifts Y = [1 x; x x²] back to x.
func TestLiftRankRoundTrip(t *testing.T) {
	p := &prob.Problem{
		NumVars: 1,
		Obj:     prob.Objective{Quad: mustMat(t, [][]float64{{1}})},
		Lo:      []float64{math.Inf(-1)},
		Hi:      []float64{math.Inf(1)},
		Lin:     []prob.LinCon{{Coeffs: []float64{1}, Sense: prob.EQ, RHS: 2}},
	}
	// LiftRank rejects box bounds; free variables must drop them explicitly.
	lifted, rec, err := prob.LiftRank(&prob.Problem{
		NumVars: p.NumVars, Obj: p.Obj, Lin: p.Lin,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := lifted.Classify(); got != prob.ClassRMP {
		t.Fatalf("lifted class = %v, want RMP", got)
	}
	res, err := prob.Solve(lifted, prob.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "sdp" {
		t.Fatalf("backend = %q, want sdp", res.Backend)
	}
	wantTrail := []string{"trace-surrogate", "to-sdp", "backend:sdp"}
	if len(res.Trail) != len(wantTrail) {
		t.Fatalf("trail = %v, want %v", res.Trail, wantTrail)
	}
	for i := range wantTrail {
		if res.Trail[i] != wantTrail[i] {
			t.Fatalf("trail = %v, want %v", res.Trail, wantTrail)
		}
	}
	rec.Lift(res)
	if res.X == nil || res.XMat != nil {
		t.Fatalf("recovery did not return to the vector space: X=%v XMat=%v", res.X, res.XMat)
	}
	if math.Abs(res.X[0]-2) > 1e-4 {
		t.Errorf("recovered x = %g, want 2", res.X[0])
	}
	// The recovery re-evaluates the original QCQP objective ½x² = 2 at the
	// lifted point, replacing the surrogate trace value.
	if math.Abs(res.Objective-2) > 1e-3 {
		t.Errorf("recovered objective = %g, want 2", res.Objective)
	}
}

func TestLiftRankRejections(t *testing.T) {
	cases := []struct {
		name string
		p    *prob.Problem
	}{
		{"inequality row", &prob.Problem{NumVars: 1, Lin: []prob.LinCon{{Coeffs: []float64{1}, Sense: prob.LE, RHS: 1}}}},
		{"integrality", &prob.Problem{NumVars: 1, Integer: []int{0}}},
		{"bounds", &prob.Problem{NumVars: 1, Hi: []float64{1}}},
		{"bilinear", &prob.Problem{NumVars: 3, Bilin: []prob.Bilinear{{W: 2, X: 0, Y: 1}}}},
	}
	for _, c := range cases {
		if _, _, err := prob.LiftRank(c.p); !errors.Is(err, prob.ErrBadProblem) {
			t.Errorf("%s: err = %v, want ErrBadProblem", c.name, err)
		}
	}
}

func TestSurrogatePassPreconditions(t *testing.T) {
	lpProb := &prob.Problem{NumVars: 1, Obj: prob.Objective{Lin: []float64{1}}}
	if _, _, err := prob.TraceSurrogate(lpProb); !errors.Is(err, prob.ErrBadProblem) {
		t.Errorf("TraceSurrogate on LP: %v, want ErrBadProblem", err)
	}
	if _, _, err := prob.ToSDP(lpProb); !errors.Is(err, prob.ErrBadProblem) {
		t.Errorf("ToSDP on LP: %v, want ErrBadProblem", err)
	}
	rmp := &prob.Problem{Matrix: &prob.MatrixBlock{Dim: 2, Obj: prob.MatrixObjRank, PSD: true}}
	tmp, rec1, err := prob.TraceSurrogate(rmp)
	if err != nil {
		t.Fatal(err)
	}
	if tmp.Classify() != prob.ClassTMP || rec1.Pass != "trace-surrogate" {
		t.Fatalf("TraceSurrogate: class %v, pass %q", tmp.Classify(), rec1.Pass)
	}
	if rmp.Matrix.Obj != prob.MatrixObjRank {
		t.Fatal("TraceSurrogate mutated its input")
	}
	std, rec2, err := prob.ToSDP(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if std.Classify() != prob.ClassSDP || rec2.Pass != "to-sdp" {
		t.Fatalf("ToSDP: class %v, pass %q", std.Classify(), rec2.Pass)
	}
	// ToSDP installs C = I, the ⟨I, X⟩ = tr(X) identity of Eq. 10.
	want := mat.Identity(2)
	for i, v := range std.Matrix.C.Data {
		if v != want.Data[i] {
			t.Fatalf("ToSDP C = %v, want identity", std.Matrix.C.Data)
		}
	}
}

func TestLowerComposesTrail(t *testing.T) {
	rmp := &prob.Problem{Matrix: &prob.MatrixBlock{Dim: 2, Obj: prob.MatrixObjRank, PSD: true}}
	std, trail, err := prob.Lower(rmp, prob.TraceSurrogate, prob.ToSDP)
	if err != nil {
		t.Fatal(err)
	}
	if std.Classify() != prob.ClassSDP {
		t.Fatalf("lowered class = %v, want SDP", std.Classify())
	}
	names := trail.Passes()
	if len(names) != 2 || names[0] != "trace-surrogate" || names[1] != "to-sdp" {
		t.Fatalf("trail = %v", names)
	}
}

func TestSolveDispatchLP(t *testing.T) {
	// max x0 + 2 x1  s.t.  x0 + x1 <= 1,  0 <= x <= 1  →  x = (0, 1), obj 2.
	p := &prob.Problem{
		NumVars: 2,
		Obj:     prob.Objective{Maximize: true, Lin: []float64{1, 2}},
		Hi:      []float64{1, 1},
		Lin:     []prob.LinCon{{Coeffs: []float64{1, 1}, Sense: prob.LE, RHS: 1}},
	}
	res, err := prob.Solve(p, prob.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "lp" || res.LP == nil {
		t.Fatalf("backend = %q (LP=%v), want lp", res.Backend, res.LP)
	}
	if res.Status != guard.StatusConverged {
		t.Fatalf("status = %v, want Converged", res.Status)
	}
	// The Result reports the maximize-sense objective; the raw backend
	// solution keeps the negated minimize value.
	if math.Abs(res.Objective-2) > 1e-9 || math.Abs(res.LP.Objective+2) > 1e-9 {
		t.Fatalf("objective = %g (backend %g), want 2 (-2)", res.Objective, res.LP.Objective)
	}
	if len(res.Trail) != 1 || res.Trail[0] != "backend:lp" {
		t.Fatalf("trail = %v", res.Trail)
	}
}

func TestSolveDispatchMILP(t *testing.T) {
	// Knapsack: max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6, binary → b+c = 20.
	p := &prob.Problem{
		NumVars: 3,
		Obj:     prob.Objective{Maximize: true, Lin: []float64{10, 13, 7}},
		Hi:      []float64{1, 1, 1},
		Integer: []int{0, 1, 2},
		Lin:     []prob.LinCon{{Coeffs: []float64{3, 4, 2}, Sense: prob.LE, RHS: 6}},
	}
	res, err := prob.Solve(p, prob.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "minlp" || res.MILP == nil {
		t.Fatalf("backend = %q, want minlp", res.Backend)
	}
	if res.Status != guard.StatusConverged || math.Abs(res.Objective-20) > 1e-9 {
		t.Fatalf("status %v objective %g, want Converged 20", res.Status, res.Objective)
	}
	want := []float64{0, 1, 1}
	for j, v := range want {
		if math.Abs(res.X[j]-v) > 1e-9 {
			t.Fatalf("X = %v, want %v", res.X, want)
		}
	}
}

func TestSolveDispatchQP(t *testing.T) {
	// min x² - 2x over [0, 3]: minimizer x = 1, value -1.
	p := &prob.Problem{
		NumVars: 1,
		Obj:     prob.Objective{Quad: mustMat(t, [][]float64{{2}}), Lin: []float64{-2}},
		Hi:      []float64{3},
	}
	res, err := prob.Solve(p, prob.Options{X0: []float64{0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "qp" || res.QP == nil {
		t.Fatalf("backend = %q, want qp", res.Backend)
	}
	if res.Status != guard.StatusConverged {
		t.Fatalf("status = %v, want Converged", res.Status)
	}
	if math.Abs(res.X[0]-1) > 1e-4 || math.Abs(res.Objective+1) > 1e-6 {
		t.Fatalf("x = %g obj = %g, want 1, -1", res.X[0], res.Objective)
	}
}

func TestSolveDispatchSDPChain(t *testing.T) {
	rs := mustMat(t, [][]float64{
		{2, 1, 1},
		{1, 2, 1},
		{1, 1, 2},
	})
	rmp, err := prob.NewDiagLowRankRMP(rs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prob.Solve(rmp, prob.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "sdp" || res.SDP == nil || res.XMat == nil {
		t.Fatalf("backend = %q XMat=%v, want sdp with matrix solution", res.Backend, res.XMat)
	}
	// The recovered Rc must match Rs off the diagonal (the Eq. 9 constraint).
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i != j && math.Abs(res.XMat.At(i, j)-rs.At(i, j)) > 1e-4 {
				t.Fatalf("Rc[%d,%d] = %g, want %g", i, j, res.XMat.At(i, j), rs.At(i, j))
			}
		}
	}
}

// TestSolveMINLPNeedsExplicitStep pins the deliberate hole in the registry:
// a problem that is both integral and nonlinear has no backend, because the
// Eq. 7 relaxation (or a rank lift) is a modeling decision the caller owns.
func TestSolveMINLPNeedsExplicitStep(t *testing.T) {
	p := &prob.Problem{
		NumVars: 1,
		Obj:     prob.Objective{Quad: mustMat(t, [][]float64{{1}})},
		Integer: []int{0},
		Hi:      []float64{1},
	}
	if _, err := prob.Solve(p, prob.Options{}); !errors.Is(err, prob.ErrBadProblem) {
		t.Fatalf("MINLP dispatch: err = %v, want ErrBadProblem", err)
	}
	// RelaxIntegrality is the documented way out.
	q, _, err := prob.RelaxIntegrality(p)
	if err != nil {
		t.Fatal(err)
	}
	if q.Classify() != prob.ClassQCQP {
		t.Fatalf("relaxed class = %v, want QCQP", q.Classify())
	}
}

// TestSolveBilinearViaMcCormick checks the implicit McCormick arm of the
// registry: a bilinear-equality problem dispatches to lp through the
// envelope, and the lift restores w = x·y exactly.
func TestSolveBilinearViaMcCormick(t *testing.T) {
	// max w  s.t.  w = x·y,  x,y ∈ [0,1]: the envelope's LP optimum sits at
	// the corner x = y = 1 where the relaxation is tight (w = 1).
	p := &prob.Problem{
		NumVars: 3,
		Obj:     prob.Objective{Maximize: true, Lin: []float64{0, 0, 1}},
		Hi:      []float64{1, 1, 1},
		Bilin:   []prob.Bilinear{{W: 2, X: 0, Y: 1}},
	}
	res, err := prob.Solve(p, prob.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "lp" {
		t.Fatalf("backend = %q, want lp", res.Backend)
	}
	if len(res.Trail) != 2 || res.Trail[0] != "mccormick" || res.Trail[1] != "backend:lp" {
		t.Fatalf("trail = %v", res.Trail)
	}
	if got, want := res.X[2], res.X[0]*res.X[1]; got != want {
		t.Fatalf("lifted w = %g, want x·y = %g", got, want)
	}
	if math.Abs(res.Objective-1) > 1e-9 {
		t.Fatalf("objective = %g, want 1", res.Objective)
	}
}
