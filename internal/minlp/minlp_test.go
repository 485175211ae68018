package minlp

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/lp"
	"repro/internal/rng"
)

func TestKnapsack(t *testing.T) {
	// max 10x1 + 13x2 + 7x3 s.t. 3x1 + 4x2 + 2x3 <= 6, x binary.
	// Best: x1=0, x2=1, x3=1 → 20 (weight 6). Alternative x1=1,x3=1 → 17.
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
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Objective-(-20)) > 1e-6 {
		t.Fatalf("objective = %v, want -20 (x=%v)", res.Objective, res.X)
	}
	want := []float64{0, 1, 1}
	for i := range want {
		if math.Abs(res.X[i]-want[i]) > 1e-9 {
			t.Fatalf("x = %v, want %v", res.X, want)
		}
	}
}

func TestIntegerRounding(t *testing.T) {
	// min -x s.t. x <= 3.7, x integer → x = 3.
	m := &MILP{
		LP: lp.Problem{
			NumVars:   1,
			Objective: []float64{-1},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{1}, Sense: lp.LE, RHS: 3.7},
			},
		},
		Integer: []int{0},
	}
	res, err := SolveMILP(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.X[0] != 3 {
		t.Fatalf("x = %v, want 3", res.X[0])
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// min -x - 10y, x continuous in [0, 2.5], y integer in [0, 10],
	// x + y <= 4.3 → y = 4, x = 0.3, obj -40.3.
	m := &MILP{
		LP: lp.Problem{
			NumVars:   2,
			Objective: []float64{-1, -10},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{1, 1}, Sense: lp.LE, RHS: 4.3},
			},
			Lo: []float64{0, 0},
			Hi: []float64{2.5, 10},
		},
		Integer: []int{1},
	}
	res, err := SolveMILP(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Objective-(-40.3)) > 1e-6 {
		t.Fatalf("objective = %v, want -40.3 (x=%v)", res.Objective, res.X)
	}
	if res.X[1] != 4 || math.Abs(res.X[0]-0.3) > 1e-6 {
		t.Fatalf("x = %v, want [0.3 4]", res.X)
	}
}

func TestInfeasibleMILP(t *testing.T) {
	// 2x = 3 with x integer: LP feasible (x=1.5) but no integer point.
	m := &MILP{
		LP: lp.Problem{
			NumVars:   1,
			Objective: []float64{1},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{2}, Sense: lp.EQ, RHS: 3},
			},
			Lo: []float64{0},
			Hi: []float64{10},
		},
		Integer: []int{0},
	}
	res, err := SolveMILP(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

func TestUnboundedMILP(t *testing.T) {
	m := &MILP{
		LP: lp.Problem{
			NumVars:   1,
			Objective: []float64{-1},
		},
		Integer: []int{0},
	}
	res, err := SolveMILP(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusUnbounded {
		t.Fatalf("status = %v, want unbounded", res.Status)
	}
}

func TestNodeBudget(t *testing.T) {
	// A knapsack-ish instance with MaxNodes 1 cannot close the tree.
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
	_, err := SolveMILP(m, Options{MaxNodes: 1})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
}

func TestBadIntegerIndex(t *testing.T) {
	m := &MILP{
		LP:      lp.Problem{NumVars: 1, Objective: []float64{1}},
		Integer: []int{5},
	}
	if _, err := SolveMILP(m, Options{}); err == nil {
		t.Fatal("want error for out-of-range integer index")
	}
}

// TestBnBMatchesExhaustive cross-checks branch and bound against brute
// force on random small binary knapsacks.
func TestBnBMatchesExhaustive(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(5) // up to 6 binaries
		values := make([]float64, n)
		weights := make([]float64, n)
		for i := range values {
			values[i] = 1 + 9*r.Float64()
			weights[i] = 1 + 4*r.Float64()
		}
		cap := 2 + 6*r.Float64()
		m := &MILP{
			LP: lp.Problem{
				NumVars:   n,
				Objective: make([]float64, n),
				Constraints: []lp.Constraint{
					{Coeffs: weights, Sense: lp.LE, RHS: cap},
				},
				Lo: make([]float64, n),
				Hi: make([]float64, n),
			},
			Integer: make([]int, n),
		}
		for i := 0; i < n; i++ {
			m.LP.Objective[i] = -values[i]
			m.LP.Hi[i] = 1
			m.Integer[i] = i
		}
		res, err := SolveMILP(m, Options{})
		if err != nil {
			return false
		}
		// Brute force.
		best := 0.0
		for mask := 0; mask < 1<<n; mask++ {
			var w, v float64
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					w += weights[i]
					v += values[i]
				}
			}
			if w <= cap && v > best {
				best = v
			}
		}
		return math.Abs(-res.Objective-best) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkKnapsack10(b *testing.B) {
	r := rng.New(1)
	n := 10
	m := &MILP{
		LP: lp.Problem{
			NumVars:   n,
			Objective: make([]float64, n),
			Lo:        make([]float64, n),
			Hi:        make([]float64, n),
		},
		Integer: make([]int, n),
	}
	weights := make([]float64, n)
	for i := 0; i < n; i++ {
		m.LP.Objective[i] = -(1 + 9*r.Float64())
		weights[i] = 1 + 4*r.Float64()
		m.LP.Hi[i] = 1
		m.Integer[i] = i
	}
	m.LP.Constraints = []lp.Constraint{{Coeffs: weights, Sense: lp.LE, RHS: 12}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = SolveMILP(m, Options{})
	}
}
