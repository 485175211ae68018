//go:build faultinject

package qos

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/guard"
	"repro/internal/minlp"
	"repro/internal/par"
	"repro/internal/pso"
)

// This file is the deterministic fault-injection suite for every qos solve
// path (build tag: faultinject; ci.sh runs it as a dedicated stage). The
// contract pinned here, for each path under each injected fault, is:
//
//	no panic · typed status (never the zero guard.StatusOK on failure) ·
//	finite outputs (any returned allocation has finite powers)
//
// and, because every fault is derived deterministically from a master seed
// (input-keyed NaN hashing, hook-based cancellation, eval caps — never
// wall-clock), the degraded results are bit-identical at any RCR_WORKERS.

// faultPlans is the master-seeded fault matrix shared by the path tests.
func faultPlans(master uint64) []faultinject.Plan {
	return []faultinject.Plan{
		{Seed: master, CancelAtIter: 0},                     // cancel before the first iteration
		{Seed: master + 1, CancelAtIter: 2},                 // cancel mid-run
		{Seed: master + 2, CancelAtIter: -1, MaxEvals: 1},   // eval starvation
		{Seed: master + 3, CancelAtIter: -1, MaxEvals: 100}, // partial budget
	}
}

func checkAlloc(t *testing.T, label string, a *Allocation) {
	t.Helper()
	if a == nil {
		return
	}
	for rb, v := range a.PowerW {
		if !guard.Finite(v) {
			t.Fatalf("%s: non-finite power %g at RB %d", label, v, rb)
		}
	}
	for rb, u := range a.UserOf {
		if u < -1 {
			t.Fatalf("%s: invalid user %d at RB %d", label, u, rb)
		}
	}
}

func TestFaultExactPathTyped(t *testing.T) {
	p := smallProblem(t, 8)
	for i, plan := range faultPlans(100) {
		label := fmt.Sprintf("plan %d", i)
		alloc, res, err := p.SolveExact(minlp.Options{Budget: plan.Budget()})
		checkAlloc(t, label, alloc)
		if res == nil {
			t.Fatalf("%s: nil result", label)
		}
		if res.Guard == guard.StatusOK {
			t.Fatalf("%s: untyped guard status (err=%v)", label, err)
		}
		// SolveExact deliberately swallows ErrBudget (the incumbent is the
		// answer), so a budget-typed Guard with nil error is the contract;
		// what must never happen is an untyped failure.
		if res.Status == minlp.StatusBudget &&
			res.Guard != guard.StatusMaxIter && res.Guard != guard.StatusTimeout && res.Guard != guard.StatusCanceled {
			t.Fatalf("%s: budget status with non-budget guard %v", label, res.Guard)
		}
	}
}

func TestFaultRelaxedPathTyped(t *testing.T) {
	p := smallProblem(t, 8)
	for i, plan := range faultPlans(200) {
		label := fmt.Sprintf("plan %d", i)
		alloc, res, err := p.SolveRelaxed(plan.Budget())
		checkAlloc(t, label, alloc)
		if res == nil {
			t.Fatalf("%s: nil result (err=%v)", label, err)
		}
		if res.Guard == guard.StatusOK {
			t.Fatalf("%s: untyped guard status", label)
		}
	}
}

func TestFaultContinuousPathTyped(t *testing.T) {
	p := smallProblem(t, 8)
	for i, plan := range faultPlans(300) {
		label := fmt.Sprintf("plan %d", i)
		res, err := p.SolveContinuousExact(4, minlp.Options{Budget: plan.Budget()})
		if err != nil && res == nil {
			continue // interrupted before any result — acceptable, typed via error
		}
		if res.BnB == nil {
			t.Fatalf("%s: nil BnB stats", label)
		}
		if res.BnB.Guard == guard.StatusOK {
			t.Fatalf("%s: untyped guard status", label)
		}
		if res.Alloc != nil {
			checkAlloc(t, label, res.Alloc)
		}
	}
}

func TestFaultPSOPathTyped(t *testing.T) {
	p := smallProblem(t, 8)
	for i, plan := range faultPlans(400) {
		label := fmt.Sprintf("plan %d", i)
		alloc, res, err := p.SolvePSO(pso.Options{Seed: 4, Swarm: 10, MaxIter: 30, Budget: plan.Budget()})
		if err != nil {
			if s, ok := guard.AsStatus(err); !ok || s == guard.StatusOK {
				t.Fatalf("%s: untyped error %v", label, err)
			}
			continue
		}
		checkAlloc(t, label, alloc)
		if res.Status == guard.StatusOK {
			t.Fatalf("%s: untyped status", label)
		}
		if !guard.Finite(res.F) && res.Status != guard.StatusDiverged {
			t.Fatalf("%s: non-finite best %g with status %v", label, res.F, res.Status)
		}
	}
}

func TestFaultRobustLadderAlwaysAnswers(t *testing.T) {
	p := smallProblem(t, 8)
	for i, plan := range faultPlans(500) {
		label := fmt.Sprintf("plan %d", i)
		alloc, rep, deg, err := p.SolveRobust(RobustOptions{
			Budget: plan.Budget(),
			Seed:   plan.Seed,
			PSO:    pso.Options{Swarm: 10, MaxIter: 30},
		})
		if err != nil {
			t.Fatalf("%s: robust solve errored: %v", label, err)
		}
		if alloc == nil || rep == nil || deg == nil {
			t.Fatalf("%s: robust solve returned nil", label)
		}
		checkAlloc(t, label, alloc)
		if !guard.Finite(rep.TotalRateBps) {
			t.Fatalf("%s: non-finite total rate", label)
		}
		for _, r := range deg.Rungs {
			if !r.Accepted && r.Status == guard.StatusOK {
				t.Fatalf("%s: rejected rung %s with untyped status", label, r.Rung)
			}
		}
	}
}

// TestFaultNaNInjectedPSOWorkerInvariance pins the headline determinism
// claim: a PSO run with input-keyed NaN injection and parallel evaluation
// is bit-identical at RCR_WORKERS=1 and RCR_WORKERS=8.
func TestFaultNaNInjectedPSOWorkerInvariance(t *testing.T) {
	plan := faultinject.Plan{Seed: 77, NaNRate: 0.3, CancelAtIter: -1}
	sphere := plan.WrapObjective(func(x []float64) float64 {
		var s float64
		for _, v := range x {
			s += v * v
		}
		return s
	})
	run := func(workers string) *pso.Result {
		t.Setenv(par.EnvWorkers, workers)
		dims := make([]pso.Dim, 6)
		for i := range dims {
			dims[i] = pso.Dim{Lo: -3, Hi: 3}
		}
		res, err := pso.Minimize(&pso.Problem{Dims: dims, Eval: sphere},
			pso.Options{Seed: 11, Swarm: 16, MaxIter: 80, Parallel: true})
		if err != nil {
			t.Fatalf("workers=%s: %v", workers, err)
		}
		return res
	}
	a := run("1")
	b := run("8")
	if a.F != b.F || !reflect.DeepEqual(a.X, b.X) {
		t.Fatalf("worker-dependent result: F %v vs %v, X %v vs %v", a.F, b.F, a.X, b.X)
	}
	if a.Evals != b.Evals || a.BadEvals != b.BadEvals || a.Status != b.Status {
		t.Fatalf("worker-dependent diagnostics: %+v vs %+v", a, b)
	}
	if a.BadEvals == 0 {
		t.Fatalf("NaN rate 0.3 injected nothing over %d evals", a.Evals)
	}
	if !guard.Finite(a.F) {
		t.Fatalf("non-finite best %g under 30%% NaN injection", a.F)
	}
}

// TestFaultRobustWorkerInvariance runs the whole degradation ladder under a
// budget fault at two worker counts and demands identical trails and
// allocations.
func TestFaultRobustWorkerInvariance(t *testing.T) {
	plan := faultinject.Plan{Seed: 88, CancelAtIter: -1, MaxEvals: 50}
	run := func(workers string) (*Allocation, *Degradation) {
		t.Setenv(par.EnvWorkers, workers)
		p := smallProblem(t, 8)
		alloc, _, deg, err := p.SolveRobust(RobustOptions{
			Budget: plan.Budget(),
			Seed:   88,
			PSO:    pso.Options{Swarm: 12, MaxIter: 40},
		})
		if err != nil {
			t.Fatalf("workers=%s: %v", workers, err)
		}
		return alloc, deg
	}
	a1, d1 := run("1")
	a8, d8 := run("8")
	if !reflect.DeepEqual(a1, a8) {
		t.Fatalf("worker-dependent allocation:\n1: %+v\n8: %+v", a1, a8)
	}
	if !reflect.DeepEqual(d1, d8) {
		t.Fatalf("worker-dependent degradation trail:\n1: %s\n8: %s", d1, d8)
	}
}

// TestFaultAllNaNPSO pins the recovery path for a totally poisoned
// objective: every evaluation NaN, and the swarm must still terminate with
// a typed Diverged status, finite X, and no panic.
func TestFaultAllNaNPSO(t *testing.T) {
	plan := faultinject.Plan{Seed: 5, NaNRate: 1, CancelAtIter: -1}
	dims := []pso.Dim{{Lo: -1, Hi: 1}, {Lo: -1, Hi: 1}}
	res, err := pso.Minimize(&pso.Problem{Dims: dims, Eval: plan.WrapObjective(func(x []float64) float64 { return 0 })},
		pso.Options{Seed: 3, Swarm: 8, MaxIter: 20, Parallel: true})
	if err == nil {
		t.Fatalf("all-NaN run reported success")
	}
	if s, ok := guard.AsStatus(err); !ok || s != guard.StatusDiverged {
		t.Fatalf("all-NaN error untyped: %v", err)
	}
	if res.Status != guard.StatusDiverged {
		t.Fatalf("status = %v, want diverged", res.Status)
	}
	for _, v := range res.X {
		if !guard.Finite(v) {
			t.Fatalf("non-finite X %v", res.X)
		}
	}
	if !math.IsInf(res.F, 1) {
		t.Fatalf("all-NaN best = %g, want +Inf", res.F)
	}
	if res.BadEvals != res.Evals {
		t.Fatalf("BadEvals %d != Evals %d under rate-1 injection", res.BadEvals, res.Evals)
	}
}
