//go:build faultinject

package prob_test

// Chaos soak suite for the a-posteriori certifier (build tag: faultinject;
// ci.sh runs it as a dedicated stage). Every solver backend is run under
// every internal-corruption mode from internal/faultinject — seeded
// bit-flips, relative perturbations, forged convergence — injected through
// the prob.Options.Tamper seam. The contract pinned here, for every fired
// corruption, is:
//
//	the corruption is detected (certificate verdict fail recorded in the
//	Trail) · the final result is either typed-degraded or a certified pass
//	whose objective matches the clean reference — a silently-wrong answer
//	is never accepted · the next clean solve through the same cache is
//	bit-identical to an uncached one
//
// and, because injection is keyed off solution bits (never call order or
// wall-clock), the full outcome matrix is bit-identical at RCR_WORKERS=1
// and 8.

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/cert"
	"repro/internal/faultinject"
	"repro/internal/guard"
	"repro/internal/par"
	"repro/internal/prob"
)

// chaosFixture is one backend's problem instance plus the knob that makes a
// run interruptible (the premature-convergence mode forges Converged onto a
// genuinely incomplete run).
type chaosFixture struct {
	name      string
	make      func(t *testing.T) *prob.Problem
	opts      func() prob.Options
	interrupt func(o *prob.Options)
}

func chaosFixtures() []chaosFixture {
	return []chaosFixture{
		{
			name: "minlp",
			make: func(t *testing.T) *prob.Problem { return knapsackIR([]float64{10, 13, 7}) },
			opts: func() prob.Options { return prob.Options{} },
			// MaxNodes 1 stops branch and bound before any incumbent exists.
			interrupt: func(o *prob.Options) { o.MaxNodes = 1 },
		},
		{
			name: "lp",
			make: func(t *testing.T) *prob.Problem {
				p := knapsackIR([]float64{10, 13, 7})
				p.Integer = nil
				return p
			},
			opts: func() prob.Options { return prob.Options{} },
			interrupt: func(o *prob.Options) {
				// The relaxation solves in one pivot: cancel before the first.
				o.Budget = faultinject.Plan{Seed: 1, CancelAtIter: 0}.Budget()
			},
		},
		{
			name: "qp",
			make: func(t *testing.T) *prob.Problem {
				// min x² - 2x over [0, 3]: minimizer x = 1, value -1.
				return &prob.Problem{
					NumVars: 1,
					Obj:     prob.Objective{Quad: mustMat(t, [][]float64{{2}}), Lin: []float64{-2}},
					Hi:      []float64{3},
				}
			},
			opts: func() prob.Options { return prob.Options{X0: []float64{0.5}} },
			interrupt: func(o *prob.Options) {
				o.Budget = faultinject.Plan{Seed: 1, CancelAtIter: 1}.Budget()
			},
		},
		{
			name: "sdp",
			make: func(t *testing.T) *prob.Problem {
				rmp, err := prob.NewDiagLowRankRMP(mustMat(t, [][]float64{{2, 1}, {1, 2}}))
				if err != nil {
					t.Fatal(err)
				}
				return rmp
			},
			opts: func() prob.Options { return prob.Options{} },
			interrupt: func(o *prob.Options) {
				o.Budget = faultinject.Plan{Seed: 1, CancelAtIter: 1}.Budget()
			},
		},
	}
}

// chaosTamper adapts a faultinject corruption plan to the Tamper seam. The
// vector modes route through plan.CorruptVector (input-bit-keyed, so the
// same solution is always corrupted regardless of worker count); the
// premature mode forges Converged onto any non-converged result — that
// fault lives at the status level, not in the iterate.
func chaosTamper(plan faultinject.Plan, fired *bool) func(*prob.Result) {
	return func(r *prob.Result) {
		if plan.Corrupt == faultinject.CorruptPremature {
			if r.Status != guard.StatusConverged {
				r.Status = guard.StatusConverged
				*fired = true
			}
			return
		}
		if r.XMat != nil {
			bad := r.XMat.Clone()
			if plan.CorruptVector(bad.Data) {
				*fired = true
				r.XMat = bad
				if r.SDP != nil {
					cp := *r.SDP
					cp.X = bad
					r.SDP = &cp
				}
			}
			return
		}
		if r.X != nil && plan.CorruptVector(r.X) {
			*fired = true
		}
	}
}

// chaosOutcome is the bit-exact summary of one injected run, compared
// verbatim across worker counts.
type chaosOutcome struct {
	Case      string
	Fired     bool
	NilResult bool
	Err       string
	Status    guard.Status
	Verdict   string
	Retries   int
	Objective uint64 // Float64bits: "identical" here means identical
	Residual  uint64
	Trail     []string
}

// runChaosMatrix executes every fixture × corruption mode, asserting the
// detection contract case by case, and returns the outcome matrix for the
// worker-invariance comparison.
func runChaosMatrix(t *testing.T) []chaosOutcome {
	t.Helper()
	modes := []faultinject.CorruptMode{
		faultinject.CorruptBitFlip,
		faultinject.CorruptPerturb,
		faultinject.CorruptPremature,
	}
	var out []chaosOutcome
	for fi, fx := range chaosFixtures() {
		// Clean reference: the answer any certified-pass run must reproduce.
		ref, err := prob.Solve(fx.make(t), fx.opts())
		if err != nil || ref.Status != guard.StatusConverged {
			t.Fatalf("%s: clean reference solve failed: %v %v", fx.name, ref, err)
		}
		for mi, mode := range modes {
			label := fx.name + "/" + mode.String()
			plan := faultinject.Plan{
				Seed:         0xc4a05 ^ uint64(16*fi+mi),
				CancelAtIter: -1,
				Corrupt:      mode,
				CorruptRate:  1,
			}
			opts := fx.opts()
			var cache *prob.Cache
			if mode == faultinject.CorruptPremature {
				// Forged convergence needs a genuinely interrupted run.
				fx.interrupt(&opts)
			} else {
				// Pre-warm a cache with a certified solve so the corrupted
				// solve runs on a cache hit, and the clean solve after it
				// shows whether the corruption left anything behind.
				cache = prob.NewCache()
				warm := fx.opts()
				warm.Cache = cache
				if _, err := prob.Solve(fx.make(t), warm); err != nil {
					t.Fatalf("%s: cache pre-warm failed: %v", label, err)
				}
				opts.Cache = cache
			}
			fired := false
			opts.Tamper = chaosTamper(plan, &fired)
			res, err := prob.Solve(fx.make(t), opts)

			oc := chaosOutcome{Case: label, Fired: fired}
			if err != nil {
				oc.Err = err.Error()
			}
			if res == nil {
				oc.NilResult = true
				if err == nil {
					t.Errorf("%s: nil result with nil error", label)
				}
			} else {
				oc.Status = res.Status
				oc.Objective = math.Float64bits(res.Objective)
				oc.Residual = math.Float64bits(res.Residual)
				oc.Trail = res.Trail
				if res.Cert != nil {
					oc.Verdict = res.Cert.String()
					oc.Retries = res.Cert.Retries
				}
			}
			out = append(out, oc)

			if !fired {
				t.Errorf("%s: corruption never fired (rate 1)", label)
				continue
			}
			// The universal safety clause: a converged result must carry a
			// passing certificate AND reproduce the clean reference — the
			// suite's whole point is that no other converged result leaves
			// Solve.
			if res != nil && res.Status == guard.StatusConverged {
				if res.Cert == nil || res.Cert.Verdict != cert.VerdictPass {
					t.Errorf("%s: converged without a passing certificate: %v", label, res.Cert)
				}
				if math.Abs(res.Objective-ref.Objective) > 1e-6*(1+math.Abs(ref.Objective)) {
					t.Errorf("%s: SILENTLY WRONG: converged objective %g, clean reference %g",
						label, res.Objective, ref.Objective)
				}
			} else if err == nil {
				t.Errorf("%s: degraded result returned nil error", label)
			}
			// Vector corruption at rate 1 poisons every escalation rung too:
			// the ladder must exhaust and record its verdict, and the cache
			// must come out of it unchanged.
			if mode != faultinject.CorruptPremature {
				if res == nil || res.Cert == nil || res.Cert.Verdict != cert.VerdictFail {
					t.Errorf("%s: rate-1 corruption not detected: %+v", label, res)
					continue
				}
				if !trailHas(res, "cert:fail(") {
					t.Errorf("%s: trail missing certificate verdict: %v", label, res.Trail)
				}
				if res.Status == guard.StatusConverged || res.Status == guard.StatusOK {
					t.Errorf("%s: detected corruption left status %v", label, res.Status)
				}
				after := fx.opts()
				after.Cache = cache
				clean, err := prob.Solve(fx.make(t), after)
				if err != nil {
					t.Errorf("%s: clean solve after corruption: %v", label, err)
					continue
				}
				sameAnswer(t, label+" clean solve after corruption", clean, ref)
			}
		}
	}
	return out
}

// TestChaosSoak runs the full corruption matrix at RCR_WORKERS=1 and 8 and
// requires bit-identical outcomes: statuses, verdicts, trails, objective and
// residual bit patterns.
func TestChaosSoak(t *testing.T) {
	t.Setenv(par.EnvWorkers, "1")
	serial := runChaosMatrix(t)
	t.Setenv(par.EnvWorkers, "8")
	wide := runChaosMatrix(t)
	if !reflect.DeepEqual(serial, wide) {
		for i := range serial {
			if i < len(wide) && !reflect.DeepEqual(serial[i], wide[i]) {
				t.Errorf("workers 1 vs 8 diverge at %s:\n  1: %+v\n  8: %+v",
					serial[i].Case, serial[i], wide[i])
			}
		}
		t.Fatal("chaos outcomes are not worker-count invariant")
	}
}
