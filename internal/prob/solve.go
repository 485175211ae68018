package prob

import (
	"fmt"
	"math"

	"repro/internal/cert"
	"repro/internal/guard"
	"repro/internal/lp"
	"repro/internal/mat"
	"repro/internal/minlp"
	"repro/internal/qp"
	"repro/internal/sdp"
)

// Options configures Solve. The zero value is usable.
type Options struct {
	// Budget bounds whichever backend runs. It is threaded uniformly: simplex
	// pivots (lp), branch-and-bound nodes and node LPs (minlp), Newton steps
	// (qp), and ADMM iterations (sdp) all check the same budget.
	Budget guard.Budget

	// MILP knobs (forwarded to minlp.Options; zero fields take its defaults).
	MaxNodes int
	IntTol   float64
	GapTol   float64
	// Incumbent warm-starts branch and bound with a known feasible point in
	// the problem's own variable space. Solve verifies feasibility against
	// the lowered problem and computes the backend-sense objective itself,
	// so callers never hand-negate maximize objectives.
	Incumbent []float64

	// QP is the barrier configuration; its Budget field is overwritten with
	// Options.Budget. X0, when non-nil, is the strictly feasible barrier
	// start (otherwise phase 1 supplies one).
	QP qp.Options
	X0 []float64

	// SDP is the ADMM configuration; its Budget field is overwritten with
	// Options.Budget.
	SDP sdp.Options

	// Cache, when non-nil, memoizes lowered/compiled forms across solves
	// keyed by structural fingerprint (see Cache). It never changes the
	// answer.
	Cache *Cache

	// Cert configures the a-posteriori certificate every converged result
	// must pass before it leaves Solve (internal/cert; DESIGN.md §11). The
	// zero value arms the certifier with the default tolerance policy and
	// the full escalation ladder.
	Cert CertConfig

	// Tamper, when non-nil, mutates the backend-space result between
	// dispatch and certification. It is the fault-injection seam the chaos
	// suites use to model solver-internal corruption (see the
	// internal/faultinject CorruptMode plans); production callers leave it
	// nil. Escalation re-solves pass through Tamper again — an injected
	// fault stays armed for the whole ladder.
	Tamper func(*Result)
}

// Result is the unified solver output.
type Result struct {
	// X is the solution in the space of the problem handed to Solve (vector
	// problems), after the recovery trail has lifted the backend solution
	// back up the pass chain. Nil when the backend found no point.
	X []float64
	// XMat is the matrix solution (matrix problems). Nil for vector problems.
	XMat *mat.Matrix
	// Objective is the objective value in the problem's own sense: for
	// vector problems it is re-evaluated from the IR at the lifted X (so a
	// maximize problem reports the maximize value, constants included); for
	// matrix problems it is the backend's ⟨C, X⟩. When X is nil it carries
	// the backend's sentinel (±Inf) — check Status first.
	Objective float64
	// Status is the typed termination cause mapped onto the shared guard
	// taxonomy through the backends' canonical Guard() mappings.
	Status guard.Status
	// Backend names the solver that ran: "lp", "minlp", "qp", or "sdp".
	Backend string
	// Trail is the per-pass provenance: the lowering passes applied in
	// order, then "backend:<name>".
	Trail []string
	// CacheHit reports that the compiled backend form was reused verbatim.
	CacheHit bool

	// Cert is the a-posteriori certificate of the returned solution (nil
	// only when Options.Cert.Disable was set). VerdictNone marks results
	// whose typed status already signals failure — there is nothing to
	// certify. A certificate that fails or escalates is also recorded in
	// the Trail ("cert:fail(...)", "cert:retry(n)", "cert:pass"); a clean
	// first-attempt pass keeps the trail as-is.
	Cert *cert.Certificate
	// Residual is the certifier's recomputed primal feasibility residual
	// (maximum relative violation against the lowered problem) at the
	// backend solution; 0 when certification did not run.
	Residual float64
	// Gap is the backend-surfaced optimality evidence, in backend units:
	// the barrier bound m/t (qp), the primal-dual objective disagreement
	// (sdp), or the incumbent-vs-bound gap (minlp). 0 for lp (the simplex
	// surfaces no dual information).
	Gap float64

	// Backend-specific results, populated for the backend that ran. These
	// carry the raw (pre-lift, minimize-sense) numbers — bounds, node
	// counts, residuals, dual certificates.
	LP   *lp.Solution
	MILP *minlp.Result
	QP   *qp.Result
	SDP  *sdp.Result
}

// loweredForm is a compiled, dispatch-ready problem: the implicit lowering
// passes Solve applied, the final IR, and the backend form it compiled to.
type loweredForm struct {
	backend string
	trail   Trail
	final   *Problem
	lp      *lp.Problem
	milp    *minlp.MILP
	qp      *qp.Problem
	sdp     *sdp.Problem
}

// Solve dispatches the problem to the lp/qp/sdp/minlp backend selected by
// inspecting its constraint blocks, applying the convex lowering passes that
// need no modeling decision first:
//
//	RMP  → TraceSurrogate → ToSDP → sdp     (Eq. 8 → 9 → 10)
//	TMP  → ToSDP → sdp                      (Eq. 9 → 10)
//	SDP  → sdp                              (Eq. 10)
//	bilinear blocks → McCormick, then:
//	MILP → minlp        QCQP → qp        LP → lp
//
// A MINLP (integrality plus quadratics) has no backend: the caller must
// choose the Eq. 7 step explicitly (RelaxIntegrality) because dropping
// integrality changes what "solution" means. Solutions are lifted back to
// the input space through the recovery trail; Result.Trail records the
// passes. Errors from interrupted runs are *guard.Error values returned
// alongside a usable partial Result, mirroring the backends.
func Solve(p *Problem, o Options) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var fp Fingerprint
	fpDone := false
	var low *loweredForm
	hit := false
	if o.Cache != nil {
		fp = p.Fingerprint()
		fpDone = true
		if ent := o.Cache.lookup(fp.Shape); ent != nil && ent.content == fp.Content {
			low, hit = ent.low, true
		}
	}
	if low == nil {
		src := p
		if o.Cache != nil {
			src = p.deepClone() // a kept form must outlive edits to p
		}
		var err error
		low, err = lowerForBackend(src)
		if err != nil {
			return nil, err
		}
	}

	// attempt runs one dispatch under ao: backend solve, the fault-injection
	// seam, then recovery lifting. The backend-space solution is captured
	// before lifting mutates X in place — it is what certification checks
	// against the lowered problem.
	attempt := func(ao Options) (res *Result, backendX []float64, backendXMat *mat.Matrix, err error) {
		res, err = dispatch(low, ao)
		if res == nil {
			return nil, nil, nil, err
		}
		if ao.Tamper != nil {
			ao.Tamper(res)
		}
		res.CacheHit = hit
		res.Trail = append(low.trail.Passes(), "backend:"+low.backend)
		backendX = cloneF(res.X)
		backendXMat = res.XMat
		low.trail.Lift(res)
		if p.Matrix == nil && res.X != nil {
			// Report the objective of the problem as stated (own sense,
			// constants included) at the lifted point; the raw backend
			// value survives in the backend-specific result.
			res.Objective = p.EvalObjective(res.X)
		}
		return res, backendX, backendXMat, err
	}

	res, backendX, backendXMat, err := attempt(o)
	o.Cache.record(hit)
	if res == nil {
		return nil, err
	}

	if !o.Cert.Disable {
		c := certifyAttempt(p, low, o, res, backendX)
		res.Cert = c
		if c.Verdict == cert.VerdictFail {
			certTrail := []string{"cert:" + c.String()}
			if !fpDone {
				// Content bits seed the perturbed-restart rung even when
				// no cache is attached.
				fp = p.Fingerprint()
				fpDone = true
			}
			for r := 1; r <= o.Cert.retries() && c.Verdict == cert.VerdictFail; r++ {
				ro := escalated(o, r, fp.Content)
				res2, bx2, bxm2, err2 := attempt(ro)
				if res2 == nil {
					certTrail = append(certTrail, fmt.Sprintf("cert:retry(%d):error", r))
					continue
				}
				c = certifyAttempt(p, low, ro, res2, bx2)
				c.Retries = r
				res2.Cert = c
				certTrail = append(certTrail, fmt.Sprintf("cert:retry(%d)", r), "cert:"+c.String())
				res, backendX, backendXMat, err = res2, bx2, bxm2, err2
			}
			res.Trail = append(res.Trail, certTrail...)
			if c.Verdict == cert.VerdictFail {
				// Degrade: a converged status must never leave Solve with
				// an uncertified solution attached. StatusDiverged is the
				// taxonomy's "numbers cannot be trusted" cause; the qos
				// ladder treats it as a rung failure and falls through.
				if res.Status == guard.StatusConverged || res.Status == guard.StatusOK {
					res.Status = guard.StatusDiverged
				}
				if err == nil {
					err = guard.Err(guard.StatusDiverged, "prob: result failed certification: %s", c)
				}
			}
		}
	}

	// Only a solve that produced a trusted point stores its form. The form
	// itself cannot be poisoned, but a failed solve leaves the cache as it
	// was, so an identical later request lowers afresh and counts a miss.
	certOK := res.Cert == nil || res.Cert.Verdict != cert.VerdictFail
	if (backendX != nil || backendXMat != nil) && res.Status != guard.StatusDiverged && certOK {
		o.Cache.store(fp, low)
	}
	return res, err
}

// lowerForBackend applies the implicit (decision-free) lowering passes and
// compiles the result for its backend.
func lowerForBackend(p *Problem) (*loweredForm, error) {
	var passes []Pass
	if p.Matrix != nil {
		switch p.Matrix.Obj {
		case MatrixObjRank:
			passes = append(passes, TraceSurrogate, ToSDP)
		case MatrixObjTrace:
			passes = append(passes, ToSDP)
		}
	} else if len(p.Bilin) > 0 {
		passes = append(passes, McCormick)
	}
	q, trail, err := Lower(p, passes...)
	if err != nil {
		return nil, err
	}
	lf := &loweredForm{trail: trail, final: q}
	switch cl := q.Classify(); cl {
	case ClassSDP:
		lf.backend = "sdp"
		lf.sdp, err = q.SDP()
	case ClassMILP:
		lf.backend = "minlp"
		lf.milp, err = q.MILP()
	case ClassQCQP:
		lf.backend = "qp"
		lf.qp, err = q.QP()
	case ClassLP:
		lf.backend = "lp"
		lf.lp, err = q.LP()
	default:
		return nil, fmt.Errorf("%w: no backend for %v — apply RelaxIntegrality (Eq. 7) or LiftRank (Eq. 8) first", ErrBadProblem, cl)
	}
	if err != nil {
		return nil, err
	}
	return lf, nil
}

// dispatch runs the backend for the lowered form. The returned Result holds
// the backend-space solution (X cloned so recovery lifts never alias the raw
// backend result); err mirrors the backend's error contract. The only starts
// a backend sees are the caller's: Options.Incumbent (minlp), Options.X0
// (qp) and Options.SDP.X0 (sdp).
func dispatch(low *loweredForm, o Options) (*Result, error) {
	switch low.backend {
	case "lp":
		sol, err := lp.SolveBudget(low.lp, o.Budget)
		if sol == nil {
			return nil, err
		}
		res := &Result{Backend: "lp", LP: sol, X: cloneF(sol.X), Objective: sol.Objective}
		res.Status = sol.Guard
		if res.Status == guard.StatusOK {
			res.Status = sol.Status.Guard()
		}
		return res, err

	case "minlp":
		mo := minlp.Options{
			MaxNodes: o.MaxNodes,
			IntTol:   o.IntTol,
			GapTol:   o.GapTol,
			Budget:   o.Budget,
		}
		// The caller's incumbent must be feasible for the *lowered* problem
		// being solved (an infeasible incumbent would prune the true
		// optimum); the backend-sense objective is computed here, never by
		// callers.
		if x := o.Incumbent; x != nil && low.final.feasible(x, incumbentTol) {
			mo.Incumbent = cloneF(x)
			mo.IncumbentObj = backendLinObj(low.final, x)
		}
		r, err := minlp.SolveMILP(low.milp, mo)
		if r == nil {
			return nil, err
		}
		res := &Result{Backend: "minlp", MILP: r, X: cloneF(r.X), Objective: r.Objective}
		if r.X != nil && guard.Finite(r.Gap()) {
			res.Gap = r.Gap()
		}
		res.Status = r.Guard
		if res.Status == guard.StatusOK {
			res.Status = r.Status.Guard()
		}
		return res, err

	case "qp":
		qo := o.QP
		qo.Budget = o.Budget
		r, err := qp.Solve(low.qp, o.X0, qo)
		if r == nil {
			return nil, err
		}
		res := &Result{Backend: "qp", QP: r, X: cloneF(r.X), Objective: r.Objective, Gap: r.Gap}
		res.Status = r.Status
		if res.Status == guard.StatusOK {
			res.Status = guard.StatusConverged
		}
		return res, err

	default: // "sdp"
		so := o.SDP
		so.Budget = o.Budget
		r, err := sdp.Solve(low.sdp, so)
		if r == nil {
			return nil, err
		}
		res := &Result{Backend: "sdp", SDP: r, XMat: r.X, Objective: r.Objective, Gap: r.Gap}
		res.Status = r.Status
		if res.Status == guard.StatusOK {
			res.Status = guard.StatusConverged
		}
		return res, err
	}
}

// incumbentTol is the feasibility slack (relative to 1+|rhs|) accepted when
// verifying a caller's incumbent against the lowered problem.
const incumbentTol = 1e-6

// EvalObjective returns the vector objective ½xᵀQx + cᵀx + const at x, in
// the problem's own sense (no maximize negation).
func (p *Problem) EvalObjective(x []float64) float64 {
	return p.Obj.Const + evalQuadForm(p.Obj.Quad, p.Obj.Lin, x)
}

// backendLinObj returns the minimize-sense linear objective the backend
// optimizes (maximize problems are negated, constants dropped) — the units
// minlp incumbent pruning compares node bounds against.
func backendLinObj(p *Problem, x []float64) float64 {
	var v float64
	for j, c := range p.Obj.Lin {
		//lint:ignore dimcheck feasible() has already checked len(x) == NumVars >= len(Obj.Lin)
		v += c * x[j]
	}
	if p.Obj.Maximize {
		v = -v
	}
	return v
}

// feasible reports whether x satisfies the vector problem's bounds,
// integrality marks, and constraint rows to within tol (relative to 1+|rhs|).
func (p *Problem) feasible(x []float64, tol float64) bool {
	if p.Matrix != nil || len(x) != p.NumVars || !guard.AllFinite(x) {
		return false
	}
	for j := range x {
		lo, hi := p.Bound(j)
		if x[j] < lo-tol || x[j] > hi+tol {
			return false
		}
	}
	for _, j := range p.Integer {
		if math.Abs(x[j]-math.Round(x[j])) > tol {
			return false
		}
	}
	rowOK := func(v, rhs float64, s Sense) bool {
		slack := tol * (1 + math.Abs(rhs))
		switch s {
		case LE:
			return v <= rhs+slack
		case GE:
			return v >= rhs-slack
		default:
			return math.Abs(v-rhs) <= slack
		}
	}
	for _, c := range p.Lin {
		var v float64
		for j, a := range c.Coeffs {
			v += a * x[j]
		}
		if !rowOK(v, c.RHS, c.Sense) {
			return false
		}
	}
	for _, c := range p.Quad {
		v := c.R + evalQuadForm(c.P, c.Q, x)
		s := c.Sense
		if s == 0 {
			s = LE
		}
		if !rowOK(v, 0, s) {
			return false
		}
	}
	for _, b := range p.Bilin {
		if math.Abs(x[b.W]-x[b.X]*x[b.Y]) > tol*(1+math.Abs(x[b.W])) {
			return false
		}
	}
	return true
}
