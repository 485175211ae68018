package minlp

import (
	"math"
	"testing"

	"repro/internal/guard"
	"repro/internal/lp"
)

// TestStatusGuardExhaustive pins the one-way minlp.Status → guard.Status
// mapping for every declared status plus undefined values. StatusBudget maps
// to guard.StatusMaxIter: the node cap is an iteration-style budget, and the
// finer Timeout/Canceled causes ride Result.Guard, not Status.
func TestStatusGuardExhaustive(t *testing.T) {
	cases := []struct {
		in   Status
		want guard.Status
	}{
		{StatusOptimal, guard.StatusConverged},
		{StatusInfeasible, guard.StatusInfeasible},
		{StatusUnbounded, guard.StatusUnbounded},
		{StatusBudget, guard.StatusMaxIter},
		{Status(0), guard.StatusOK},
		{Status(99), guard.StatusOK},
	}
	covered := map[Status]bool{}
	for _, c := range cases {
		if got := c.in.Guard(); got != c.want {
			t.Errorf("Status(%d).Guard() = %v, want %v", int(c.in), got, c.want)
		}
		covered[c.in] = true
	}
	for s := StatusOptimal; s <= StatusBudget; s++ {
		if !covered[s] {
			t.Errorf("declared status %v missing from the Guard() table", s)
		}
	}
}

// TestSolveProblemKnapsack solves a 0/1 knapsack through SolveProblem with
// the MILP LP hook as the node relaxation.
func TestSolveProblemKnapsack(t *testing.T) {
	m := &MILP{
		LP: lp.Problem{
			NumVars:   3,
			Objective: []float64{-10, -13, -7},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{3, 4, 2}, Sense: lp.LE, RHS: 6},
			},
			Lo: []float64{0, 0, 0},
			Hi: []float64{1, 1, 1},
		},
		Integer: []int{0, 1, 2},
	}
	relax := func(lo, hi []float64) ([]float64, float64, RelaxStatus, error) {
		sub := m.LP
		sub.Lo, sub.Hi = lo, hi
		sol, err := lp.Solve(&sub)
		if err != nil {
			return nil, 0, RelaxInfeasible, err
		}
		switch sol.Status {
		case lp.StatusOptimal:
			return sol.X, sol.Objective, RelaxOptimal, nil
		case lp.StatusUnbounded:
			return nil, 0, RelaxUnbounded, nil
		default:
			return nil, 0, RelaxInfeasible, nil
		}
	}
	lo := []float64{0, 0, 0}
	hi := []float64{1, 1, 1}

	res, err := SolveProblem(&Problem{NumVars: 3, Integer: []int{0, 1, 2}, Lo: lo, Hi: hi, Relax: relax}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal || math.Abs(res.Objective-(-20)) > 1e-9 {
		t.Fatalf("knapsack solve: %+v", res)
	}
}
