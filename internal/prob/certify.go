package prob

// This file is the problem-aware half of the a-posteriori certification
// contract (DESIGN.md §11; the solver-agnostic vocabulary lives in
// internal/cert). Every Result leaving Solve with a converged status is
// checked against the problem itself — primal residuals recomputed from the
// lowered IR, objective consistency recomputed from the returned point,
// integrality and bound consistency for MINLP incumbents, PSD membership
// for SDP iterates, and the backend-surfaced duality gaps where dual
// information exists. A failed certificate drives the escalation ladder in
// Solve: tightened-tolerance re-solve, then a seeded perturbed restart,
// then a degraded typed status the qos fallback ladder treats as a rung
// failure.

import (
	"math"

	"repro/internal/cert"
	"repro/internal/guard"
	"repro/internal/mat"
	"repro/internal/rng"
)

// CertConfig configures the a-posteriori certifier. The zero value arms it:
// certification is the default because an unchecked answer poisons every
// downstream QoS decision. Disable exists for measurement (rcrbench certified-vs-
// uncertified pairs), not for production call sites.
type CertConfig struct {
	// Disable turns certification (and with it the escalation ladder) off.
	Disable bool
	// Tol is the tolerance policy; zero fields take the cert defaults.
	Tol cert.Tolerances
	// MaxRetries bounds the escalation re-solves after a failed
	// certificate: 0 takes the default of 2 (tightened-tolerance re-solve,
	// then seeded perturbed restart); negative disables escalation so a
	// failure degrades immediately.
	MaxRetries int
}

// retries resolves the MaxRetries convention.
func (c CertConfig) retries() int {
	switch {
	case c.MaxRetries < 0:
		return 0
	case c.MaxRetries == 0:
		return 2
	default:
		return c.MaxRetries
	}
}

// certifyAttempt certifies one dispatch attempt. backendX is the
// backend-space solution captured before recovery lifting; res is the
// lifted result. Results whose typed status already signals failure carry
// nothing to certify (VerdictNone) — their status is the degradation.
func certifyAttempt(p *Problem, low *loweredForm, o Options, res *Result, backendX []float64) *cert.Certificate {
	tol := o.Cert.Tol.WithDefaults()
	if res.Status != guard.StatusConverged {
		return &cert.Certificate{Verdict: cert.VerdictNone}
	}
	b := cert.NewBuilder()
	if low.backend == "sdp" {
		certifySDP(b, low, o, res, tol)
	} else {
		certifyVector(b, p, low, o, res, backendX, tol)
	}
	c := b.Done()
	if pc, ok := c.Check("primal"); ok {
		res.Residual = pc.Value
	}
	return c
}

// certifyVector checks an lp/minlp/qp answer.
func certifyVector(b *cert.Builder, p *Problem, low *loweredForm, o Options, res *Result, x []float64, tol cert.Tolerances) {
	if x == nil || len(x) != low.final.NumVars || !guard.AllFinite(x) {
		// A converged status with no usable point is itself the corruption
		// (premature-convergence forgery); fail structurally.
		b.Fail("solution")
		return
	}

	// Primal feasibility, recomputed from the lowered IR the backend
	// actually solved — never from the backend's own residual fields, which
	// travel with the (possibly corrupted) result.
	b.Add("primal", low.final.residualAt(x), tol.Feas)

	// Integrality of MINLP incumbents.
	if len(low.final.Integer) > 0 {
		var worst float64
		for _, j := range low.final.Integer {
			if v := math.Abs(x[j] - math.Round(x[j])); v > worst {
				worst = v
			}
		}
		b.Add("integral", worst, tol.Int)
	}

	// Objective consistency: the backend's reported optimum against a
	// recomputation from the returned point, in backend (minimize-sense)
	// units. A corrupted iterate almost never reproduces the honest value.
	if reported, recomputed, ok := backendObjectives(low, res, x); ok {
		b.Add("objective", cert.RelGap(reported, recomputed), tol.Obj)
	}

	switch low.backend {
	case "minlp":
		// Bound consistency: a genuine incumbent can never beat the proven
		// global lower bound.
		if r := res.MILP; r != nil && guard.Finite(r.BestBound) {
			under := r.BestBound - backendLinObj(low.final, x)
			b.Add("bound", under/(1+math.Abs(r.BestBound)), tol.Feas)
		}
	case "qp":
		// Duality gap surfaced by the barrier: m/t bounds the distance to
		// the optimum for a centered iterate. Scaled against the barrier's
		// own convergence tolerance — the certificate detects corruption,
		// it is not a second convergence test.
		if r := res.QP; r != nil {
			qTol := o.QP.Tol
			if qTol == 0 {
				qTol = 1e-8
			}
			b.Add("gap", r.Gap, math.Max(tol.Gap, 10*qTol))
		}
	}
	// The lp backend exposes no dual information (the two-phase simplex
	// keeps no multiplier tableau); its certificate rests on the primal
	// and objective checks, which is what the chaos corruption magnitudes
	// are calibrated against (DESIGN.md §11 tolerance policy).

	// Recovery round-trip. For exact (empty) trails the lifted objective
	// must reproduce the lowered one at the backend point. For McCormick
	// trails the lift recomputes w = x·y exactly, so the lifted point's
	// true objective can never beat the relaxation's own optimum — an
	// outer approximation that is *beaten* was corrupted.
	if res.X != nil && len(res.X) == p.NumVars && guard.AllFinite(res.X) {
		if len(low.trail.Passes()) == 0 {
			b.Add("roundtrip", cert.RelGap(res.Objective, low.final.EvalObjective(x)), tol.Obj)
		} else if p.Matrix == nil {
			relaxed := low.final.EvalObjective(x)
			lifted := p.EvalObjective(res.X)
			beat := lifted - relaxed
			if !p.Obj.Maximize {
				beat = relaxed - lifted
			}
			b.Add("roundtrip", beat/(1+math.Abs(relaxed)), tol.Obj)
		}
	}
}

// certifySDP checks an ADMM answer: equality residuals and PSD membership
// recomputed from the iterate, objective consistency, and the recovered
// dual certificate's gap when the dual slack is clean enough to trust.
func certifySDP(b *cert.Builder, low *loweredForm, o Options, res *Result, tol cert.Tolerances) {
	sp := low.sdp
	X := res.XMat
	if X == nil || X.Rows != X.Cols || X.Rows != sp.C.Rows || !guard.AllFinite(X.Data) {
		b.Fail("solution")
		return
	}
	// ADMM converges in the splitting residual, so recomputed equality
	// violations inherit its tolerance; the certificate allows that scale
	// plus the policy's own slack.
	admmTol := o.SDP.Tol
	if admmTol == 0 {
		admmTol = 1e-7
	}
	feasTol := tol.Feas + 100*admmTol

	var worst float64
	for i, a := range sp.A {
		var v float64
		for k := range a.Data {
			v += a.Data[k] * X.Data[k]
		}
		if r := math.Abs(v-sp.B[i]) / (1 + math.Abs(sp.B[i])); r > worst {
			worst = r
		}
	}
	b.Add("primal", worst, feasTol)

	// PSD membership, recomputed. The Z-iterate is an exact eigenvalue
	// clip, so an honest answer has λmin >= 0 to rounding; scale by the
	// iterate's own magnitude.
	var maxAbs float64
	for _, v := range X.Data {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if lo, err := mat.MinEigenvalue(X.Clone().Symmetrize()); err == nil {
		b.Add("psd", math.Max(0, -lo)/(1+maxAbs), feasTol)
	} else {
		b.Fail("psd")
	}

	// Objective consistency: ⟨C, X⟩ recomputed with the same
	// symmetrization the backend reports against.
	cSym := sp.C.Clone().Symmetrize()
	var recomputed float64
	for k := range cSym.Data {
		recomputed += cSym.Data[k] * X.Data[k]
	}
	if r := res.SDP; r != nil {
		b.Add("objective", cert.RelGap(r.Objective, recomputed), tol.Obj)
		// Duality-gap sanity: only when the recovered dual point is close
		// enough to feasible for weak duality to mean anything.
		if r.Y != nil && r.DualFeasError() <= feasTol*(1+maxAbs) {
			b.Add("gap", r.Gap/(1+math.Abs(r.Objective)), tol.Gap)
		}
	}
}

// backendObjectives returns the backend's reported optimum and its
// recomputation at x, both in backend units.
func backendObjectives(low *loweredForm, res *Result, x []float64) (reported, recomputed float64, ok bool) {
	switch low.backend {
	case "lp":
		if res.LP == nil {
			return 0, 0, false
		}
		var v float64
		for j := 0; j < len(low.lp.Objective); j++ {
			v += low.lp.Objective[j] * x[j]
		}
		return res.LP.Objective, v, true
	case "minlp":
		if res.MILP == nil {
			return 0, 0, false
		}
		return res.MILP.Objective, backendLinObj(low.final, x), true
	case "qp":
		if res.QP == nil {
			return 0, 0, false
		}
		return res.QP.Objective, low.qp.F0.Eval(x), true
	}
	return 0, 0, false
}

// residualAt returns the maximum relative violation of the vector problem's
// bounds, linear/quadratic rows, and bilinear definitions at x — the
// quantitative counterpart of feasible(). Integrality is certified
// separately. +Inf for a dimension mismatch or non-finite x.
func (p *Problem) residualAt(x []float64) float64 {
	if p.Matrix != nil || len(x) != p.NumVars || !guard.AllFinite(x) {
		return math.Inf(1)
	}
	var worst float64
	viol := func(v, scale float64) {
		if r := v / (1 + math.Abs(scale)); r > worst {
			worst = r
		}
	}
	for j := range x {
		lo, hi := p.Bound(j)
		if !math.IsInf(lo, -1) {
			viol(lo-x[j], lo)
		}
		if !math.IsInf(hi, 1) {
			viol(x[j]-hi, hi)
		}
	}
	for _, c := range p.Lin {
		var v float64
		for j, a := range c.Coeffs {
			v += a * x[j]
		}
		switch c.Sense {
		case LE:
			viol(v-c.RHS, c.RHS)
		case GE:
			viol(c.RHS-v, c.RHS)
		default:
			viol(math.Abs(v-c.RHS), c.RHS)
		}
	}
	for _, c := range p.Quad {
		v := c.R + evalQuadForm(c.P, c.Q, x)
		s := c.Sense
		if s == 0 {
			s = LE
		}
		switch s {
		case LE:
			viol(v, 0)
		case GE:
			viol(-v, 0)
		default:
			viol(math.Abs(v), 0)
		}
	}
	for _, bl := range p.Bilin {
		viol(math.Abs(x[bl.W]-x[bl.X]*x[bl.Y]), x[bl.W])
	}
	return worst
}

// escalated derives the options for escalation rung r of the ladder. Every
// rung solves from scratch (no caller-supplied start — the point of the
// ladder is independence from whatever produced the failure). Rung 1
// tightens the backend tolerances one decade; later rungs additionally
// perturb the solver trajectory where a backend has a seam for it (barrier
// weight, ADMM penalty), seeded from the problem's content fingerprint so
// the restart is deterministic for a given instance at any worker count.
// The lp and minlp backends are deterministic with no trajectory seam, so
// their later rungs are fresh tightened re-solves; a corruption that
// persists through them degrades the result for the qos ladder to handle.
func escalated(o Options, r int, content uint64) Options {
	eo := o
	eo.X0 = nil
	eo.Incumbent = nil
	eo.SDP.X0 = nil

	tighten := func(v, def float64) float64 {
		if v == 0 {
			v = def
		}
		return v / 10
	}
	eo.QP.Tol = tighten(o.QP.Tol, 1e-8)
	eo.SDP.Tol = tighten(o.SDP.Tol, 1e-7)
	eo.GapTol = tighten(o.GapTol, 1e-9)

	if r >= 2 {
		rr := rng.New(content ^ 0xcedc5ce14db2d871 ^ uint64(r))
		// Jitters stay well inside the solvers' stable parameter ranges:
		// they move the trajectory, not the answer.
		if eo.SDP.Rho == 0 {
			eo.SDP.Rho = 1
		}
		eo.SDP.Rho *= 1 + 0.5*(2*rr.Float64()-1)
		if eo.QP.T0 == 0 {
			eo.QP.T0 = 1
		}
		eo.QP.T0 *= 1 + 2*rr.Float64()
	}
	return eo
}
