package prob

import (
	"errors"
	"fmt"

	"repro/internal/guard"
	"repro/internal/mat"
	"repro/internal/sdp"
)

// ErrNotSymmetric is returned when the input to the decomposition is not
// symmetric.
var ErrNotSymmetric = errors.New("prob: matrix is not symmetric")

// Decomposition is the diagonal-plus-low-rank split Rs = Rc + Rn recovered
// by the trace-minimization relaxation of the paper's Eqs. 8–10: Rc is PSD
// and (hopefully) low rank, Rn is diagonal.
type Decomposition struct {
	Rc *mat.Matrix
	Rn *mat.Matrix
	// RankRc is the numerical rank of Rc at tolerance 1e-6.
	RankRc int
	// Trace is tr(Rc), the relaxed objective value.
	Trace float64
	// Iterations is the inner SDP solver iteration count.
	Iterations int
}

// TraceMinOptions configures DecomposeDiagLowRank. Zero fields default.
type TraceMinOptions struct {
	SDP     sdp.Options
	RankTol float64 // numerical rank tolerance, default 1e-6
}

// DecomposeDiagLowRank solves the trace-minimization problem (TMP, Eq. 9)
//
//	min tr(Rc)   s.t.  Rc + Rn = Rs,  Rc ⪰ 0,  Rn diagonal,
//
// which is the convex surrogate of the rank-minimization problem (RMP,
// Eq. 8). Because Rn is an unconstrained diagonal, the constraint set
// reduces to "the off-diagonal of Rc equals the off-diagonal of Rs",
// yielding a standard-form SDP solved by the sdp package; Rn is then read
// off the diagonal residual. It is the end-to-end driver of the Eq. 8–10
// lowering chain, so it lives beside NewDiagLowRankRMP and the passes it
// runs.
func DecomposeDiagLowRank(rs *mat.Matrix, o TraceMinOptions) (*Decomposition, error) {
	n := rs.Rows
	if rs.Cols != n {
		return nil, fmt.Errorf("prob: Rs is %dx%d, want square", rs.Rows, rs.Cols)
	}
	if !rs.IsSymmetric(1e-9) {
		return nil, ErrNotSymmetric
	}
	if o.RankTol == 0 {
		o.RankTol = 1e-6
	}
	// State the RMP (Eq. 8) and let the registry run the explicit lowering
	// chain rank → trace (Eq. 9) → standard form ⟨I, X⟩ (Eq. 10) → sdp
	// backend. The compiled SDP is element-identical to the historically
	// hand-built one (pinned by the prob golden tests).
	ir, err := NewDiagLowRankRMP(rs)
	if err != nil {
		return nil, fmt.Errorf("prob: trace minimization: %w", err)
	}
	res, err := Solve(ir, Options{Budget: o.SDP.Budget, SDP: o.SDP})
	if err != nil {
		return nil, fmt.Errorf("prob: trace minimization: %w", err)
	}
	if res.Status != guard.StatusConverged {
		// A nil error can still carry a degraded or uncertified partial
		// result; the decomposition must come from a certified solve.
		return nil, guard.Err(res.Status, "prob: trace minimization did not certify")
	}
	rc := res.XMat
	rn := mat.New(n, n)
	for i := 0; i < n; i++ {
		rn.Set(i, i, rs.At(i, i)-rc.At(i, i))
	}
	rank, err := mat.NumericalRank(rc, o.RankTol)
	if err != nil {
		return nil, fmt.Errorf("prob: rank of Rc: %w", err)
	}
	tr, _ := rc.Trace()
	return &Decomposition{
		Rc:         rc,
		Rn:         rn,
		RankRc:     rank,
		Trace:      tr,
		Iterations: res.SDP.Iterations,
	}, nil
}

// ResidualNorm returns ||Rs - (Rc + Rn)||_F for a decomposition, the
// feasibility check of the Eq. 9 constraint set.
func (d *Decomposition) ResidualNorm(rs *mat.Matrix) float64 {
	sum, err := d.Rc.AddM(d.Rn)
	if err != nil {
		return -1
	}
	diff, err := rs.SubM(sum)
	if err != nil {
		return -1
	}
	return diff.FrobNorm()
}

// RankByTrueMinimization evaluates the *nonconvex* rank objective (Eq. 8)
// on a decomposition — the quantity the trace relaxation surrogates. It is
// simply the numerical rank of Rc; exposed so experiments can report
// "rank achieved by the trace surrogate" next to the trace value.
func RankByTrueMinimization(d *Decomposition, tol float64) (int, error) {
	if tol == 0 {
		tol = 1e-6
	}
	return mat.NumericalRank(d.Rc, tol)
}
