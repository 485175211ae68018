package prob

import (
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/relax"
)

// Recovery maps a lowered problem's solution back to the problem the pass
// was applied to. Passes return one Recovery each; a pipeline of passes
// composes its recoveries in reverse (see Trail.Lift).
type Recovery struct {
	// Pass names the lowering that produced this recovery ("relax-integrality",
	// "mccormick", "lift-rank", "trace-surrogate", "to-sdp").
	Pass string
	// lift rewrites the result in place from the lowered space to the
	// upper space; nil means the identity.
	lift func(*Result)
}

// Lift maps res from the lowered solution space back to the space of the
// problem this pass was applied to. The result is modified in place and
// returned; its Trail is untouched (provenance describes the whole run).
func (r *Recovery) Lift(res *Result) *Result {
	if r != nil && r.lift != nil && res != nil {
		r.lift(res)
	}
	return res
}

// Trail is the ordered sequence of recoveries produced by a lowering
// pipeline: Trail[0] belongs to the first pass applied.
type Trail []*Recovery

// Lift maps a solution of the fully lowered problem back to the original
// space by applying the recoveries last-to-first.
func (t Trail) Lift(res *Result) *Result {
	for i := len(t) - 1; i >= 0; i-- {
		res = t[i].Lift(res)
	}
	return res
}

// Passes returns the pass names in application order.
func (t Trail) Passes() []string {
	out := make([]string, len(t))
	for i, r := range t {
		out[i] = r.Pass
	}
	return out
}

// Pass is one pure lowering: it returns a new Problem (the input is never
// mutated) plus the Recovery mapping solutions back up.
type Pass func(*Problem) (*Problem, *Recovery, error)

// Lower applies passes in order and returns the final problem plus the
// recovery trail.
func Lower(p *Problem, passes ...Pass) (*Problem, Trail, error) {
	var trail Trail
	for _, pass := range passes {
		var rec *Recovery
		var err error
		p, rec, err = pass(p)
		if err != nil {
			return nil, nil, err
		}
		trail = append(trail, rec)
	}
	return p, trail, nil
}

// RelaxIntegrality drops the integrality marks — the MINLP → continuous
// step (MINLP → QCQP when quadratic blocks remain, MILP → LP otherwise;
// the move the paper's relaxed verifiers make). The recovery rounds the
// relaxed solution's integer coordinates to the nearest integer, clipped
// into the variable's box, so the lifted point is integral (though not
// necessarily feasible — rounding is the caller's repair problem, as in
// qos.SolveRelaxed).
func RelaxIntegrality(p *Problem) (*Problem, *Recovery, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	if p.Matrix != nil {
		return nil, nil, fmt.Errorf("%w: relax-integrality applies to vector problems", ErrBadProblem)
	}
	q := p.Clone()
	ints := q.Integer
	q.Integer = nil
	bounds := p // bounds are read from the original problem at lift time
	rec := &Recovery{Pass: "relax-integrality", lift: func(res *Result) {
		if res.X == nil {
			return
		}
		for _, j := range ints {
			lo, hi := bounds.Bound(j)
			v := math.Round(res.X[j])
			if v < lo {
				v = lo
			}
			if v > hi {
				v = hi
			}
			res.X[j] = v
		}
	}}
	return q, rec, nil
}

// McCormick replaces every bilinear equality w = x·y with its four-plane
// linear envelope over the box of x and y: two convex under-estimator rows
// w >= plane and two concave over-estimator rows w <= plane, the planes of
// relax.McCormick. Every bilinear variable triple needs finite bounds on x
// and y (relax.McCormick itself accepts infinite ones). The recovery restores
// feasibility of the lifted point in the original nonconvex space by
// recomputing w = x·y exactly.
func McCormick(p *Problem) (*Problem, *Recovery, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	if p.Matrix != nil {
		return nil, nil, fmt.Errorf("%w: mccormick applies to vector problems", ErrBadProblem)
	}
	q := p.Clone()
	terms := q.Bilin
	q.Bilin = nil
	for i, b := range terms {
		xlo, xhi := p.Bound(b.X)
		ylo, yhi := p.Bound(b.Y)
		for _, v := range [...]float64{xlo, xhi, ylo, yhi} {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				return nil, nil, fmt.Errorf("%w: mccormick term %d (w=x%d·x%d) needs finite bounds, got x∈[%g,%g] y∈[%g,%g]",
					ErrBadProblem, i, b.X, b.Y, xlo, xhi, ylo, yhi)
			}
		}
		under, over, err := relax.McCormick(relax.Interval{Lo: xlo, Hi: xhi}, relax.Interval{Lo: ylo, Hi: yhi})
		if err != nil {
			return nil, nil, fmt.Errorf("%w: mccormick term %d (w=x%d·x%d): %w", ErrBadProblem, i, b.X, b.Y, err)
		}
		// Under-estimators: w >= a·x + b·y + c  ⇒  w - a·x - b·y >= c.
		for _, pl := range under {
			q.Lin = append(q.Lin, envelopeRow(p.NumVars, b, pl, GE))
		}
		// Over-estimators: w <= a·x + b·y + c  ⇒  w - a·x - b·y <= c.
		for _, pl := range over {
			q.Lin = append(q.Lin, envelopeRow(p.NumVars, b, pl, LE))
		}
	}
	rec := &Recovery{Pass: "mccormick", lift: func(res *Result) {
		if res.X == nil {
			return
		}
		for _, b := range terms {
			res.X[b.W] = res.X[b.X] * res.X[b.Y]
		}
	}}
	return q, rec, nil
}

// envelopeRow encodes w - a·x - b·y (sense) c for one McCormick plane.
func envelopeRow(n int, b Bilinear, pl relax.Affine2, sense Sense) LinCon {
	row := make([]float64, n)
	row[b.W] = 1
	row[b.X] -= pl.A
	row[b.Y] -= pl.B
	return LinCon{Coeffs: row, Sense: sense, RHS: pl.C}
}

// LiftRank lifts a continuous, equality-constrained QCQP (Eq. 7) to the
// rank-constrained matrix problem (RMP, Eq. 8) over the homogenized
// variable Y = [1 xᵀ; x xxᵀ] ⪰ 0 of dimension n+1:
//
//   - each linear equality aᵀx = b becomes ⟨[0 aᵀ/2; a/2 0], Y⟩ = b;
//   - each quadratic equality ½xᵀPx + qᵀx + r = 0 becomes ⟨M, Y⟩ = 0
//     with M = [r qᵀ/2; q/2 P/2];
//   - the homogenization pin ⟨e₀e₀ᵀ, Y⟩ = 1 fixes the corner;
//   - the dropped rank(Y) = 1 condition is what makes the lift exact; it
//     survives as the RMP's MatrixObjRank objective, which TraceSurrogate
//     then relaxes to the trace (Eq. 9).
//
// Inequality rows, integrality, bilinear terms, and bounds are not
// representable in the equality-only matrix block and are rejected; they
// must be lowered away (RelaxIntegrality, McCormick) first. The recovery
// reads x back out of the lifted solution's first column: xⱼ = Y₍ⱼ₊₁₎₀/Y₀₀.
func LiftRank(p *Problem) (*Problem, *Recovery, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	if p.Matrix != nil {
		return nil, nil, fmt.Errorf("%w: lift-rank applies to vector problems", ErrBadProblem)
	}
	if len(p.Integer) > 0 || len(p.Bilin) > 0 {
		return nil, nil, fmt.Errorf("%w: lift-rank needs a continuous problem without bilinear terms (lower integrality and bilinears first)", ErrBadProblem)
	}
	if p.Lo != nil || p.Hi != nil {
		return nil, nil, fmt.Errorf("%w: lift-rank cannot encode box bounds in the equality-only matrix block", ErrBadProblem)
	}
	n := p.NumVars
	dim := n + 1
	blk := &MatrixBlock{Dim: dim, Obj: MatrixObjRank, PSD: true}
	// Homogenization pin Y₀₀ = 1.
	pin := mat.New(dim, dim)
	pin.Set(0, 0, 1)
	blk.A = append(blk.A, pin)
	blk.B = append(blk.B, 1)
	for i, c := range p.Lin {
		if c.Sense != EQ {
			return nil, nil, fmt.Errorf("%w: lift-rank supports equality rows only (row %d is %v)", ErrBadProblem, i, c.Sense)
		}
		a := mat.New(dim, dim)
		for j, v := range c.Coeffs {
			a.Set(0, j+1, v/2)
			a.Set(j+1, 0, v/2)
		}
		blk.A = append(blk.A, a)
		blk.B = append(blk.B, c.RHS)
	}
	for i, c := range p.Quad {
		if c.Sense != EQ {
			return nil, nil, fmt.Errorf("%w: lift-rank supports equality quadratics only (constraint %d is %v)", ErrBadProblem, i, c.Sense)
		}
		blk.A = append(blk.A, liftQuad(dim, c.P, c.Q, c.R))
		blk.B = append(blk.B, 0)
	}
	q := &Problem{Matrix: blk}
	rec := &Recovery{Pass: "lift-rank", lift: func(res *Result) {
		if res.XMat == nil {
			return
		}
		y00 := res.XMat.At(0, 0)
		if y00 == 0 {
			y00 = 1
		}
		x := make([]float64, n)
		for j := 0; j < n; j++ {
			x[j] = res.XMat.At(j+1, 0) / y00
		}
		res.X = x
		res.XMat = nil
		// Re-evaluate the original objective at the recovered point: the
		// lowered objective (rank/trace) is a surrogate, not the QCQP value.
		res.Objective = p.Obj.Const + evalQuadForm(p.Obj.Quad, p.Obj.Lin, x)
	}}
	return q, rec, nil
}

// liftQuad builds the homogenized matrix M = [r qᵀ/2; q/2 P/2] so that
// ⟨M, [1 xᵀ; x xxᵀ]⟩ = ½xᵀPx + qᵀx + r.
func liftQuad(dim int, pm *mat.Matrix, q []float64, r float64) *mat.Matrix {
	m := mat.New(dim, dim)
	m.Set(0, 0, r)
	for j, v := range q {
		m.Add(0, j+1, v/2)
		m.Add(j+1, 0, v/2)
	}
	if pm != nil {
		for i := 0; i < pm.Rows; i++ {
			for j := 0; j < pm.Cols; j++ {
				// Symmetrized half: ⟨P/2, xxᵀ⟩ = ½xᵀPx for symmetric P.
				m.Add(i+1, j+1, (pm.At(i, j)+pm.At(j, i))/4)
			}
		}
	}
	return m
}

// evalQuadForm returns ½xᵀPx + qᵀx.
func evalQuadForm(pm *mat.Matrix, q []float64, x []float64) float64 {
	var v float64
	for j, qj := range q {
		//lint:ignore dimcheck Validate pins len(q) <= NumVars == len(x) before any pass runs
		v += qj * x[j]
	}
	if pm != nil {
		for i := 0; i < pm.Rows; i++ {
			var row float64
			for j := 0; j < pm.Cols; j++ {
				row += pm.At(i, j) * x[j]
			}
			v += 0.5 * x[i] * row
		}
	}
	return v
}

// TraceSurrogate replaces the RMP's nonconvex rank objective with the trace
// (Eq. 8 → Eq. 9): over the PSD cone the trace is the tightest convex
// surrogate of the rank (the nuclear-norm relaxation). Constraints are
// untouched; the recovery is the identity because the variable space does
// not change — only the objective is surrogated.
func TraceSurrogate(p *Problem) (*Problem, *Recovery, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	if p.Matrix == nil || p.Matrix.Obj != MatrixObjRank {
		return nil, nil, fmt.Errorf("%w: trace-surrogate applies to rank-objective matrix problems (RMP)", ErrBadProblem)
	}
	q := p.Clone()
	q.Matrix.Obj = MatrixObjTrace
	return q, &Recovery{Pass: "trace-surrogate"}, nil
}

// ToSDP rewrites the TMP's trace objective as the standard-form inner
// product ⟨I, X⟩ (Eq. 9 → Eq. 10), the exact shape the sdp backend accepts.
// The recovery is the identity.
func ToSDP(p *Problem) (*Problem, *Recovery, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	if p.Matrix == nil || p.Matrix.Obj != MatrixObjTrace {
		return nil, nil, fmt.Errorf("%w: to-sdp applies to trace-objective matrix problems (TMP)", ErrBadProblem)
	}
	q := p.Clone()
	q.Matrix.Obj = MatrixObjInner
	q.Matrix.C = mat.Identity(q.Matrix.Dim)
	return q, &Recovery{Pass: "to-sdp"}, nil
}
