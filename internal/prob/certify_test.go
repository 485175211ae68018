package prob_test

// End-to-end tests of the a-posteriori certifier (DESIGN.md §11) through
// Solve's public Tamper seam: hand-built known-infeasible solutions,
// off-by-tolerance nudges on both sides of the policy boundary, forged
// convergence, the escalation ladder, and the cache-quarantine interplay.

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cert"
	"repro/internal/guard"
	"repro/internal/prob"
)

// trailHas reports whether any trail entry starts with prefix.
func trailHas(res *prob.Result, prefix string) bool {
	for _, e := range res.Trail {
		if strings.HasPrefix(e, prefix) {
			return true
		}
	}
	return false
}

// TestCertifiedCleanSolvesPass pins the default-armed certifier on honest
// solves across backends: verdict pass, no cert noise in the trail.
func TestCertifiedCleanSolvesPass(t *testing.T) {
	// minlp (binary knapsack).
	res, err := prob.Solve(knapsackIR([]float64{10, 13, 7}), prob.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cert == nil || res.Cert.Verdict != cert.VerdictPass {
		t.Fatalf("minlp certificate = %v, want pass", res.Cert)
	}
	if trailHas(res, "cert:") {
		t.Fatalf("clean pass polluted the trail: %v", res.Trail)
	}
	if res.Residual > 1e-9 {
		t.Fatalf("clean knapsack residual = %g", res.Residual)
	}

	// lp (the continuous relaxation).
	lpIR := knapsackIR([]float64{10, 13, 7})
	lpIR.Integer = nil
	res, err = prob.Solve(lpIR, prob.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cert.Verdict != cert.VerdictPass {
		t.Fatalf("lp certificate = %v, want pass", res.Cert)
	}

	// sdp (diag/low-rank RMP through TraceSurrogate→ToSDP) — also guards
	// the gap-check calibration against the ADMM dual recovery accuracy.
	rmp, err := prob.NewDiagLowRankRMP(mustMat(t, [][]float64{{2, 1}, {1, 2}}))
	if err != nil {
		t.Fatal(err)
	}
	res, err = prob.Solve(rmp, prob.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cert.Verdict != cert.VerdictPass {
		t.Fatalf("sdp certificate = %v (checks %+v), want pass", res.Cert, res.Cert.Checks)
	}
}

// TestCertifyRejectsKnownInfeasible hands the certifier a hand-built
// infeasible "solution": (1,1,1) weighs 9 against the knapsack's capacity
// of 6. The deterministic tamper corrupts every escalation rung too, so the
// ladder must exhaust and degrade the result — never return Converged.
func TestCertifyRejectsKnownInfeasible(t *testing.T) {
	cache := prob.NewCache()
	if _, err := prob.Solve(knapsackIR([]float64{10, 13, 7}), prob.Options{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	res, err := prob.Solve(knapsackIR([]float64{10, 13, 6}), prob.Options{
		Cache: cache,
		Tamper: func(r *prob.Result) {
			if r.X != nil {
				r.X = []float64{1, 1, 1}
			}
		},
	})
	if err == nil {
		t.Fatal("corrupted solve returned nil error")
	}
	if res == nil {
		t.Fatal("corrupted solve returned nil result")
	}
	if res.Status == guard.StatusConverged {
		t.Fatalf("corrupted solve kept Converged status: %+v", res)
	}
	if res.Cert == nil || res.Cert.Verdict != cert.VerdictFail {
		t.Fatalf("certificate = %v, want fail", res.Cert)
	}
	fails := strings.Join(res.Cert.Failures(), ",")
	if !strings.Contains(fails, "primal") {
		t.Fatalf("failures = %q, want primal among them", fails)
	}
	// The verdict and the ladder are recorded in the provenance trail.
	if !trailHas(res, "cert:fail(") || !trailHas(res, "cert:retry(1)") || !trailHas(res, "cert:retry(2)") {
		t.Fatalf("trail missing certificate provenance: %v", res.Trail)
	}
	// The poisoned answer left nothing behind: the next clean solve through
	// the same cache equals an uncached one.
	clean, err := prob.Solve(knapsackIR([]float64{10, 13, 6}), prob.Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Status != guard.StatusConverged || math.Abs(clean.Objective-19) > 1e-9 {
		t.Fatalf("recovery solve: status %v obj %g, want Converged 19", clean.Status, clean.Objective)
	}
	uncached, err := prob.Solve(knapsackIR([]float64{10, 13, 6}), prob.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, "recovery solve", clean, uncached)
}

// TestCertifyToleranceBoundary nudges an optimal LP vertex by amounts on
// both sides of the certificate tolerance: noise far below the policy is
// accepted (the certifier is a corruption detector, not an exactness
// test), an off-by-1e-3 point is rejected.
func TestCertifyToleranceBoundary(t *testing.T) {
	lpIR := func() *prob.Problem {
		p := knapsackIR([]float64{10, 13, 7})
		p.Integer = nil
		return p
	}
	nudge := func(eps float64) prob.Options {
		return prob.Options{Tamper: func(r *prob.Result) {
			if r.X != nil {
				r.X[1] += eps
			}
		}}
	}
	res, err := prob.Solve(lpIR(), nudge(1e-9))
	if err != nil {
		t.Fatalf("within-tolerance nudge rejected: %v", err)
	}
	if res.Cert.Verdict != cert.VerdictPass {
		t.Fatalf("1e-9 nudge certificate = %v, want pass", res.Cert)
	}
	res, err = prob.Solve(lpIR(), nudge(1e-3))
	if err == nil || res.Cert.Verdict != cert.VerdictFail {
		t.Fatalf("1e-3 nudge accepted: err=%v cert=%v", err, res.Cert)
	}
}

// TestCertifyForgedConvergence models premature-convergence corruption: a
// budget-interrupted branch and bound whose status is forged to Converged.
// The certifier must refuse the incomplete answer.
func TestCertifyForgedConvergence(t *testing.T) {
	// MaxNodes 1 stops the knapsack search before any incumbent exists.
	res, err := prob.Solve(knapsackIR([]float64{10, 13, 7}), prob.Options{
		MaxNodes: 1,
		Tamper: func(r *prob.Result) {
			r.Status = guard.StatusConverged
		},
	})
	if err == nil {
		t.Fatal("forged convergence returned nil error")
	}
	if res.Status == guard.StatusConverged {
		t.Fatalf("forged convergence survived certification: %+v", res)
	}
	if res.Cert == nil || res.Cert.Verdict != cert.VerdictFail {
		t.Fatalf("certificate = %v, want fail", res.Cert)
	}
	if _, ok := res.Cert.Check("solution"); !ok {
		t.Fatalf("expected structural solution check, got %+v", res.Cert.Checks)
	}
}

// TestCertifySDPCorruption scales a converged ADMM iterate by 1.5: the
// recomputed equality residuals (not the backend's stale in-band fields)
// must catch it.
func TestCertifySDPCorruption(t *testing.T) {
	rmp, err := prob.NewDiagLowRankRMP(mustMat(t, [][]float64{{2, 1}, {1, 2}}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := prob.Solve(rmp, prob.Options{
		Tamper: func(r *prob.Result) {
			if r.XMat != nil {
				bad := r.XMat.Clone()
				for k := range bad.Data {
					bad.Data[k] *= 1.5
				}
				r.XMat = bad
				if r.SDP != nil {
					cp := *r.SDP
					cp.X = bad
					r.SDP = &cp
				}
			}
		},
	})
	if err == nil {
		t.Fatal("corrupted SDP iterate accepted")
	}
	if res.Cert == nil || res.Cert.Verdict != cert.VerdictFail {
		t.Fatalf("certificate = %v, want fail", res.Cert)
	}
	fails := strings.Join(res.Cert.Failures(), ",")
	if !strings.Contains(fails, "primal") && !strings.Contains(fails, "objective") {
		t.Fatalf("failures = %q, want primal or objective", fails)
	}
}

// TestCertifyEscalationRecovers arms a one-shot tamper: the first attempt
// is corrupted, the first escalation rung re-solves clean, and the ladder
// must hand back a certified converged result with the retry on record.
func TestCertifyEscalationRecovers(t *testing.T) {
	fired := false
	res, err := prob.Solve(knapsackIR([]float64{10, 13, 7}), prob.Options{
		Tamper: func(r *prob.Result) {
			if !fired && r.X != nil {
				fired = true
				r.X = []float64{1, 1, 1}
			}
		},
	})
	if err != nil {
		t.Fatalf("escalation did not recover: %v", err)
	}
	if res.Status != guard.StatusConverged || math.Abs(res.Objective-20) > 1e-9 {
		t.Fatalf("recovered solve: status %v obj %g, want Converged 20", res.Status, res.Objective)
	}
	if res.Cert == nil || res.Cert.Verdict != cert.VerdictPass || res.Cert.Retries != 1 {
		t.Fatalf("certificate = %+v, want pass after 1 retry", res.Cert)
	}
	if !trailHas(res, "cert:retry(1)") || !trailHas(res, "cert:pass") {
		t.Fatalf("trail missing escalation provenance: %v", res.Trail)
	}
}

// TestCertDisable pins what Disable means: the corrupted answer sails
// through untouched. It exists for measurement (rcrbench pairs), and this
// test documents exactly the hazard of using it anywhere else.
func TestCertDisable(t *testing.T) {
	res, err := prob.Solve(knapsackIR([]float64{10, 13, 7}), prob.Options{
		Cert: prob.CertConfig{Disable: true},
		Tamper: func(r *prob.Result) {
			if r.X != nil {
				r.X = []float64{1, 1, 1}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cert != nil {
		t.Fatalf("disabled certifier still produced %v", res.Cert)
	}
	if res.Status != guard.StatusConverged {
		t.Fatalf("status = %v", res.Status)
	}
}

// TestCertifyNoRetries: negative MaxRetries degrades immediately without
// re-solving.
func TestCertifyNoRetries(t *testing.T) {
	attempts := 0
	res, err := prob.Solve(knapsackIR([]float64{10, 13, 7}), prob.Options{
		Cert: prob.CertConfig{MaxRetries: -1},
		Tamper: func(r *prob.Result) {
			attempts++
			if r.X != nil {
				r.X = []float64{1, 1, 1}
			}
		},
	})
	if err == nil || res.Status == guard.StatusConverged {
		t.Fatalf("uncertified result accepted: err=%v res=%+v", err, res)
	}
	if attempts != 1 {
		t.Fatalf("MaxRetries -1 ran %d attempts, want 1", attempts)
	}
	if res.Cert.Retries != 0 {
		t.Fatalf("Retries = %d, want 0", res.Cert.Retries)
	}
}
