package prob

// Recertify is the trust boundary for results that crossed a process or
// machine boundary (DESIGN.md §16). The wire layer's checksum, typed
// decode, and fingerprint checks prove a reply is *intact*; they cannot
// prove it is *true* — a worker with corrupted memory (or a tampered one)
// can produce a perfectly well-formed frame around a wrong answer. Before a
// coordinator merges a remote result it therefore re-runs the semantic
// slice of the certificate against its own copy of the problem: primal
// feasibility recomputed from the IR, integrality of incumbents, and
// objective reproduction at the returned point.

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cert"
	"repro/internal/guard"
)

// ErrRecertify is wrapped by every recertification failure, so a
// coordinator can route "worker lied" (quarantine, breaker, fallback)
// separately from transport errors.
var ErrRecertify = errors.New("prob: untrusted result failed recertification")

// Recertify checks a deserialized Result claiming to solve the vector
// problem p. It accepts only a converged claim whose solution point
// reproduces the claim: finite, dimension-correct, primal-feasible for p's
// bounds and rows, integral on p's integer variables, and carrying an
// objective equal to p's objective at the point. Any violation returns an
// error wrapping ErrRecertify; nil means the result may cross the boundary.
//
// The check is deliberately point-wise: it proves the answer is a genuine
// feasible point with the stated objective, which is exactly what a
// deterministic re-solve would reproduce. A Byzantine worker that forges a
// converged status around a *feasible but suboptimal* point defeats any
// single-result check and is out of scope (detecting it requires redundant
// dispatch and vote, DESIGN.md §16); every corruption the chaos plans
// inject — bit-flips, perturbations, damaged frames — lands outside the
// feasible-and-consistent set and is caught here or below.
func Recertify(p *Problem, res *Result) error {
	if p == nil || p.Matrix != nil {
		return fmt.Errorf("%w: only vector problems recertify point-wise", ErrRecertify)
	}
	if res == nil {
		return fmt.Errorf("%w: no result", ErrRecertify)
	}
	if res.Status != guard.StatusConverged {
		return fmt.Errorf("%w: status %v carries no certified claim", ErrRecertify, res.Status)
	}
	x := res.X
	if x == nil || len(x) != p.NumVars || !guard.AllFinite(x) {
		return fmt.Errorf("%w: solution missing, mis-sized, or non-finite", ErrRecertify)
	}
	tol := cert.Tolerances{}.WithDefaults()
	if r := p.residualAt(x); r > tol.Feas {
		return fmt.Errorf("%w: primal residual %.3g > %.3g", ErrRecertify, r, tol.Feas)
	}
	if len(p.Integer) > 0 {
		var worst float64
		for _, j := range p.Integer {
			if v := math.Abs(x[j] - math.Round(x[j])); v > worst {
				worst = v
			}
		}
		if worst > tol.Int {
			return fmt.Errorf("%w: integrality violation %.3g > %.3g", ErrRecertify, worst, tol.Int)
		}
	}
	if g := cert.RelGap(res.Objective, p.EvalObjective(x)); g > tol.Obj {
		return fmt.Errorf("%w: reported objective off by %.3g > %.3g", ErrRecertify, g, tol.Obj)
	}
	return nil
}
