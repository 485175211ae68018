package minlp

import (
	"errors"
	"reflect"
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

// TestSolveProblemKnapsack pins SolveMILP's search on a 0/1 knapsack
// problem: the node count, incumbent and bound of the full solve, and the
// plunged incumbent and best-first bound when a node cap of 2 stops it.
// Any change to node order, plunging or incumbent handling moves them.
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
	res, err := SolveMILP(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal || res.Guard != guard.StatusConverged || res.Nodes != 3 ||
		res.Objective != -20 || res.BestBound != -20 || !reflect.DeepEqual(res.X, []float64{0, 1, 1}) {
		t.Fatalf("knapsack solve: %+v", res)
	}

	res, err = SolveMILP(m, Options{MaxNodes: 2})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("capped solve: err = %v, want ErrBudget", err)
	}
	if res.Status != StatusBudget || res.Guard != guard.StatusMaxIter || res.Nodes != 2 ||
		res.Objective != -17 || res.BestBound != -20.25 || !reflect.DeepEqual(res.X, []float64{1, 0, 1}) {
		t.Fatalf("capped knapsack solve: %+v", res)
	}
}
