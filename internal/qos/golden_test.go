package qos

import (
	"reflect"
	"testing"

	"repro/internal/lp"
	"repro/internal/minlp"
	"repro/internal/prob"
)

// TestGoldenColumnModelMILP pins the IR migration's bit-faithfulness on a
// seeded RRA instance: compiling the column model through prob must reproduce,
// element for element, the minlp.MILP the seed implementation hand-built
// (negated maximize objective, identical row order, identical bounds and
// integrality list). Exact == comparisons throughout — any numeric drift
// here would silently change EXPERIMENTS.md numbers.
func TestGoldenColumnModelMILP(t *testing.T) {
	p := smallProblem(t, 8)
	cm := p.columns()
	cols, ir := cm.cols, cm.IR
	got, err := ir.MILP()
	if err != nil {
		t.Fatal(err)
	}

	// The seed's hand-built construction, reproduced verbatim.
	n := len(cols)
	want := lp.Problem{
		NumVars:   n,
		Objective: make([]float64, n),
		Lo:        make([]float64, n),
		Hi:        make([]float64, n),
	}
	ints := make([]int, n)
	for i, c := range cols {
		want.Objective[i] = -c.rate // maximize
		want.Hi[i] = 1
		ints[i] = i
	}
	for rb := 0; rb < p.Inst.Params.NumRBs; rb++ {
		row := make([]float64, n)
		any := false
		for i, c := range cols {
			if c.rb == rb {
				row[i] = 1
				any = true
			}
		}
		if any {
			want.Constraints = append(want.Constraints, lp.Constraint{Coeffs: row, Sense: lp.LE, RHS: 1})
		}
	}
	for u := range p.Users {
		pRow := make([]float64, n)
		rRow := make([]float64, n)
		for i, c := range cols {
			if c.u == u {
				pRow[i] = p.Levels[c.level]
				rRow[i] = c.rate
			}
		}
		want.Constraints = append(want.Constraints,
			lp.Constraint{Coeffs: pRow, Sense: lp.LE, RHS: p.PowerBudgetW},
			lp.Constraint{Coeffs: rRow, Sense: lp.GE, RHS: p.Reqs[p.Users[u].Class].MinRateBps},
		)
	}

	if !reflect.DeepEqual(got.Integer, ints) {
		t.Fatalf("integrality list differs: %v vs %v", got.Integer, ints)
	}
	if got.LP.NumVars != want.NumVars {
		t.Fatalf("NumVars %d, want %d", got.LP.NumVars, want.NumVars)
	}
	if !reflect.DeepEqual(got.LP.Objective, want.Objective) {
		t.Fatal("negated objective differs from the hand-built one")
	}
	if !reflect.DeepEqual(got.LP.Lo, want.Lo) || !reflect.DeepEqual(got.LP.Hi, want.Hi) {
		t.Fatal("bounds differ from the hand-built ones")
	}
	if len(got.LP.Constraints) != len(want.Constraints) {
		t.Fatalf("%d constraint rows, want %d", len(got.LP.Constraints), len(want.Constraints))
	}
	for i := range want.Constraints {
		g, w := got.LP.Constraints[i], want.Constraints[i]
		if g.Sense != w.Sense || g.RHS != w.RHS || !reflect.DeepEqual(g.Coeffs, w.Coeffs) {
			t.Errorf("row %d differs:\ngot  %+v\nwant %+v", i, g, w)
		}
	}

	// And the solve itself is bit-identical: branch and bound over the
	// IR-compiled MILP reproduces the hand-built run exactly.
	ref, err := minlp.SolveMILP(&minlp.MILP{LP: want, Integer: ints}, minlp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := prob.Solve(ir, prob.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := sol.MILP
	if res.Status != ref.Status || res.Objective != ref.Objective || !reflect.DeepEqual(res.X, ref.X) {
		t.Fatalf("IR-path solve (%v, %v) diverged from hand-built solve (%v, %v)",
			res.Status, res.Objective, ref.Status, ref.Objective)
	}
	// The unified result reports the maximize-sense value of the same answer.
	if sol.Objective != -res.Objective {
		t.Fatalf("maximize objective %v is not the negated backend value %v", sol.Objective, res.Objective)
	}
}
