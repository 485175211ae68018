// Package prob is the single typed optimization IR of the repository and
// the home of the paper's Eq. 7–10 lowering chain. Every optimization layer
// in the stack — the 5G RRA column MILPs (internal/qos), the trace-min
// decomposition (internal/relax), the triangle-relaxation verifier LPs
// (internal/verify), and the layer-1 inertia QP (internal/core) — states
// its problem as a prob.Problem and obtains solver inputs by *lowering*:
//
//	nonconvex MINLP ──RelaxIntegrality──▶ QCQP      (Eq. 7)
//	QCQP            ──LiftRank─────────▶ RMP        (Eq. 8, min rank)
//	RMP             ──TraceSurrogate───▶ TMP        (Eq. 9, min trace)
//	TMP             ──ToSDP────────────▶ SDP        (Eq. 10, standard form)
//	bilinear blocks ──McCormick────────▶ linear envelopes
//
// Each pass is pure: it returns a new Problem plus a Recovery that maps the
// lowered solution back up the chain, so a pipeline of passes composes into
// a single round trip from the original variable space to the solved one
// and back. Solve dispatches a Problem to the lp/qp/sdp/minlp backends by
// inspecting its constraint blocks, threads one guard.Budget through
// whichever backend runs, and reports a unified Result carrying the typed
// guard.Status and the per-pass provenance trail.
//
// A structural-fingerprint cache (see Cache) lets repeated solves of a
// content-identical problem — qosd's repeat traffic, a restarted service —
// reuse the lowered/compiled form. It never changes the answer.
package prob

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mat"
)

// ErrBadProblem is returned for structurally invalid problems.
var ErrBadProblem = errors.New("prob: invalid problem")

// Sense is the direction of a linear constraint row.
type Sense int

// Constraint senses. The values mirror internal/lp so compilation is a
// direct mapping.
const (
	LE Sense = iota + 1
	EQ
	GE
)

// String implements fmt.Stringer.
func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case EQ:
		return "="
	case GE:
		return ">="
	default:
		return fmt.Sprintf("sense(%d)", int(s))
	}
}

// LinCon is one linear row a·x (sense) b. Coeffs may be shorter than
// NumVars; missing entries are zero.
type LinCon struct {
	Coeffs []float64
	Sense  Sense
	RHS    float64
}

// QuadCon is one quadratic constraint ½xᵀPx + qᵀx + r (sense) 0. P is
// treated as symmetric; nil P degrades to an affine row. Only LE and EQ
// senses are meaningful (GE of a convex quadratic is nonconvex).
type QuadCon struct {
	P     *mat.Matrix
	Q     []float64
	R     float64
	Sense Sense
}

// Bilinear marks the nonconvex equality x[W] = x[X]·x[Y]. The McCormick
// pass replaces it with its linear envelope over the bounds of X and Y.
type Bilinear struct {
	W, X, Y int
}

// Objective is min/max of ½xᵀQuad·x + Lin·x + Const over the vector
// variables. Maximize is normalized away by compilation (coefficients are
// negated), so backends always minimize.
type Objective struct {
	Maximize bool
	Lin      []float64
	Quad     *mat.Matrix
	Const    float64
}

// MatrixObj names the objective over a matrix variable block.
type MatrixObj int

// Matrix-block objectives: the three rungs of the paper's Eq. 8–10 chain.
const (
	// MatrixObjRank: minimize rank(X) — the nonconvex RMP (Eq. 8).
	MatrixObjRank MatrixObj = iota + 1
	// MatrixObjTrace: minimize tr(X) — the TMP surrogate (Eq. 9).
	MatrixObjTrace
	// MatrixObjInner: minimize ⟨C, X⟩ — standard-form SDP (Eq. 10).
	MatrixObjInner
)

// String implements fmt.Stringer.
func (o MatrixObj) String() string {
	switch o {
	case MatrixObjRank:
		return "rank"
	case MatrixObjTrace:
		return "trace"
	case MatrixObjInner:
		return "inner"
	default:
		return fmt.Sprintf("matrixobj(%d)", int(o))
	}
}

// MatrixBlock is a problem over one symmetric Dim×Dim matrix variable X:
//
//	minimize    Obj(X)                  (rank, trace, or ⟨C, X⟩)
//	subject to  ⟨Aᵢ, X⟩ = Bᵢ            i = 1..m
//	            X ⪰ 0                   (when PSD)
//
// Equality-only constraints mirror the sdp backend's standard form; the
// Eq. 8–10 chain needs nothing more.
type MatrixBlock struct {
	Dim int
	Obj MatrixObj
	// C is the inner-product objective matrix; nil unless Obj is
	// MatrixObjInner.
	C   *mat.Matrix
	A   []*mat.Matrix
	B   []float64
	PSD bool
}

// Problem is the typed IR. A Problem holds either a vector part (NumVars
// with bounds, integrality marks, and linear/quadratic/bilinear blocks) or
// a matrix block — never both; the LiftRank pass is the bridge between the
// two worlds.
type Problem struct {
	// NumVars is the vector-variable count.
	NumVars int
	Obj     Objective
	// Lo/Hi are optional bounds, ±Inf allowed; nil means 0 and +Inf for
	// every variable (the lp package's convention, preserved so compiled
	// problems are element-identical to their hand-built ancestors).
	Lo, Hi []float64
	// Integer lists variable indices required integral.
	Integer []int
	Lin     []LinCon
	Quad    []QuadCon
	// Bilin lists nonconvex bilinear equalities awaiting the McCormick pass.
	Bilin []Bilinear
	// Matrix, when non-nil, makes this a matrix-variable problem.
	Matrix *MatrixBlock
}

// Class names the problem class the IR currently encodes — the rungs of
// the paper's formulation chain.
type Class int

// Problem classes, loosest (most exact) to tightest (most relaxed).
const (
	// ClassMINLP: integrality plus nonlinearity (quadratic blocks or
	// unlowered bilinear equalities).
	ClassMINLP Class = iota + 1
	// ClassMILP: integrality over purely linear blocks.
	ClassMILP
	// ClassQCQP: continuous with quadratic objective or constraints (Eq. 7).
	ClassQCQP
	// ClassLP: continuous and purely linear.
	ClassLP
	// ClassRMP: matrix rank minimization (Eq. 8).
	ClassRMP
	// ClassTMP: matrix trace minimization (Eq. 9).
	ClassTMP
	// ClassSDP: standard-form semidefinite program (Eq. 10).
	ClassSDP
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassMINLP:
		return "MINLP"
	case ClassMILP:
		return "MILP"
	case ClassQCQP:
		return "QCQP"
	case ClassLP:
		return "LP"
	case ClassRMP:
		return "RMP"
	case ClassTMP:
		return "TMP"
	case ClassSDP:
		return "SDP"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Classify reports the problem class the IR currently encodes.
func (p *Problem) Classify() Class {
	if p.Matrix != nil {
		switch p.Matrix.Obj {
		case MatrixObjRank:
			return ClassRMP
		case MatrixObjTrace:
			return ClassTMP
		default:
			return ClassSDP
		}
	}
	nonlinear := p.Obj.Quad != nil || len(p.Quad) > 0 || len(p.Bilin) > 0
	switch {
	case len(p.Integer) > 0 && nonlinear:
		return ClassMINLP
	case len(p.Integer) > 0:
		return ClassMILP
	case nonlinear:
		return ClassQCQP
	default:
		return ClassLP
	}
}

// Validate checks structural consistency: index ranges, bound lengths, and
// the vector/matrix exclusivity rule.
func (p *Problem) Validate() error {
	if p.Matrix != nil {
		if p.NumVars != 0 || len(p.Lin) != 0 || len(p.Quad) != 0 || len(p.Bilin) != 0 || len(p.Integer) != 0 {
			return fmt.Errorf("%w: matrix block must not coexist with vector blocks", ErrBadProblem)
		}
		m := p.Matrix
		if m.Dim <= 0 {
			return fmt.Errorf("%w: matrix dim %d", ErrBadProblem, m.Dim)
		}
		if len(m.A) != len(m.B) {
			return fmt.Errorf("%w: %d constraint matrices, %d rhs", ErrBadProblem, len(m.A), len(m.B))
		}
		for i, a := range m.A {
			if a == nil || a.Rows != m.Dim || a.Cols != m.Dim {
				return fmt.Errorf("%w: matrix constraint %d is not %dx%d", ErrBadProblem, i, m.Dim, m.Dim)
			}
		}
		if m.Obj == MatrixObjInner && (m.C == nil || m.C.Rows != m.Dim || m.C.Cols != m.Dim) {
			return fmt.Errorf("%w: inner objective needs a %dx%d C", ErrBadProblem, m.Dim, m.Dim)
		}
		if m.Obj != MatrixObjRank && m.Obj != MatrixObjTrace && m.Obj != MatrixObjInner {
			return fmt.Errorf("%w: matrix objective %d", ErrBadProblem, int(m.Obj))
		}
		return nil
	}
	n := p.NumVars
	if n < 0 {
		return fmt.Errorf("%w: NumVars=%d", ErrBadProblem, n)
	}
	if len(p.Obj.Lin) > n {
		return fmt.Errorf("%w: objective has %d coefficients for %d vars", ErrBadProblem, len(p.Obj.Lin), n)
	}
	if p.Obj.Quad != nil && (p.Obj.Quad.Rows != n || p.Obj.Quad.Cols != n) {
		return fmt.Errorf("%w: quadratic objective is %dx%d for %d vars", ErrBadProblem, p.Obj.Quad.Rows, p.Obj.Quad.Cols, n)
	}
	if p.Lo != nil && len(p.Lo) != n {
		return fmt.Errorf("%w: Lo has %d entries for %d vars", ErrBadProblem, len(p.Lo), n)
	}
	if p.Hi != nil && len(p.Hi) != n {
		return fmt.Errorf("%w: Hi has %d entries for %d vars", ErrBadProblem, len(p.Hi), n)
	}
	for i, c := range p.Lin {
		if len(c.Coeffs) > n {
			return fmt.Errorf("%w: linear constraint %d has %d coefficients for %d vars", ErrBadProblem, i, len(c.Coeffs), n)
		}
		if c.Sense != LE && c.Sense != EQ && c.Sense != GE {
			return fmt.Errorf("%w: linear constraint %d has sense %d", ErrBadProblem, i, int(c.Sense))
		}
	}
	for i, c := range p.Quad {
		if len(c.Q) > n {
			return fmt.Errorf("%w: quadratic constraint %d has %d coefficients for %d vars", ErrBadProblem, i, len(c.Q), n)
		}
		if c.P != nil && (c.P.Rows != n || c.P.Cols != n) {
			return fmt.Errorf("%w: quadratic constraint %d matrix is %dx%d for %d vars", ErrBadProblem, i, c.P.Rows, c.P.Cols, n)
		}
		if c.Sense != 0 && c.Sense != LE && c.Sense != EQ {
			return fmt.Errorf("%w: quadratic constraint %d has sense %v", ErrBadProblem, i, c.Sense)
		}
	}
	for _, j := range p.Integer {
		if j < 0 || j >= n {
			return fmt.Errorf("%w: integer index %d out of range [0,%d)", ErrBadProblem, j, n)
		}
	}
	for i, b := range p.Bilin {
		for _, j := range []int{b.W, b.X, b.Y} {
			if j < 0 || j >= n {
				return fmt.Errorf("%w: bilinear term %d references variable %d of %d", ErrBadProblem, i, j, n)
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the vector blocks and a shallow copy of the
// matrix block's matrices (passes never mutate constraint matrices).
func (p *Problem) Clone() *Problem {
	q := &Problem{
		NumVars: p.NumVars,
		Obj: Objective{
			Maximize: p.Obj.Maximize,
			Lin:      cloneF(p.Obj.Lin),
			Quad:     p.Obj.Quad,
			Const:    p.Obj.Const,
		},
		Lo:      cloneF(p.Lo),
		Hi:      cloneF(p.Hi),
		Integer: append([]int(nil), p.Integer...),
		Lin:     append([]LinCon(nil), p.Lin...),
		Quad:    append([]QuadCon(nil), p.Quad...),
		Bilin:   append([]Bilinear(nil), p.Bilin...),
	}
	if p.Matrix != nil {
		m := *p.Matrix
		m.A = append([]*mat.Matrix(nil), p.Matrix.A...)
		m.B = cloneF(p.Matrix.B)
		q.Matrix = &m
	}
	return q
}

// Bound returns the effective bounds of variable j under the lp package's
// nil conventions (nil Lo ⇒ 0, nil Hi ⇒ +Inf).
func (p *Problem) Bound(j int) (lo, hi float64) {
	lo, hi = 0, math.Inf(1)
	if p.Lo != nil {
		lo = p.Lo[j]
	}
	if p.Hi != nil {
		hi = p.Hi[j]
	}
	return lo, hi
}

func cloneF(xs []float64) []float64 {
	if xs == nil {
		return nil
	}
	return append([]float64(nil), xs...)
}
