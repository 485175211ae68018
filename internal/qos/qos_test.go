package qos

import (
	"errors"
	"math"
	"testing"

	"repro/internal/minlp"
	"repro/internal/pso"
)

func smallProblem(t *testing.T, seed uint64) *Problem {
	t.Helper()
	p, err := GenerateProblem(1, 1, 1, 6, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestGenerateProblem(t *testing.T) {
	p := smallProblem(t, 1)
	if len(p.Users) != 3 {
		t.Fatalf("users = %d", len(p.Users))
	}
	byClass := map[Class]int{}
	for _, u := range p.Users {
		byClass[u.Class]++
	}
	if byClass[ClassEMBB] != 1 || byClass[ClassURLLC] != 1 || byClass[ClassMMTC] != 1 {
		t.Fatalf("class mix %v", byClass)
	}
}

func TestValidation(t *testing.T) {
	p := smallProblem(t, 2)
	p.Levels = []float64{0.3, 0.1}
	if err := p.Validate(); !errors.Is(err, ErrProblem) {
		t.Fatal("descending levels should fail")
	}
	p = smallProblem(t, 2)
	p.PowerBudgetW = 0
	if err := p.Validate(); !errors.Is(err, ErrProblem) {
		t.Fatal("zero budget should fail")
	}
}

func TestEvaluateEmptyAllocation(t *testing.T) {
	p := smallProblem(t, 3)
	rep, err := p.Evaluate(NewAllocation(6))
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalRateBps != 0 || rep.AllQoSMet {
		t.Fatalf("empty allocation: rate %v, allmet %v", rep.TotalRateBps, rep.AllQoSMet)
	}
}

func TestEvaluateDetectsBudgetViolation(t *testing.T) {
	p := smallProblem(t, 4)
	a := NewAllocation(6)
	for rb := 0; rb < 6; rb++ {
		a.UserOf[rb] = 0
		a.PowerW[rb] = p.PowerBudgetW // 6× budget in total
	}
	rep, err := p.Evaluate(a)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.BudgetViolated {
		t.Fatal("budget violation not flagged")
	}
}

func TestEvaluateRejectsBadAllocation(t *testing.T) {
	p := smallProblem(t, 5)
	a := NewAllocation(3) // wrong size
	if _, err := p.Evaluate(a); !errors.Is(err, ErrProblem) {
		t.Fatal("want size error")
	}
	a = NewAllocation(6)
	a.UserOf[0] = 99
	a.PowerW[0] = 0.1
	if _, err := p.Evaluate(a); !errors.Is(err, ErrProblem) {
		t.Fatal("want user range error")
	}
}

func TestGreedyProducesFeasiblePower(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		p := smallProblem(t, seed)
		a, err := p.SolveGreedy()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := p.Evaluate(a)
		if err != nil {
			t.Fatal(err)
		}
		if rep.BudgetViolated {
			t.Fatalf("seed %d: greedy violated power budget", seed)
		}
		if rep.SNRViolated {
			t.Fatalf("seed %d: greedy violated SNR floor", seed)
		}
		if rep.TotalRateBps <= 0 {
			t.Fatalf("seed %d: greedy allocated nothing", seed)
		}
	}
}

func TestExactBeatsOrMatchesGreedy(t *testing.T) {
	p := smallProblem(t, 7)
	greedy, err := p.SolveGreedy()
	if err != nil {
		t.Fatal(err)
	}
	gRep, _ := p.Evaluate(greedy)
	alloc, res, err := p.SolveExact(minlp.Options{MaxNodes: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != minlp.StatusOptimal {
		t.Skipf("exact solver status %v (instance may be QoS-infeasible)", res.Status)
	}
	eRep, err := p.Evaluate(alloc)
	if err != nil {
		t.Fatal(err)
	}
	if eRep.BudgetViolated || eRep.SNRViolated {
		t.Fatal("exact solution violates constraints")
	}
	// The exact optimum (when QoS-feasible) dominates any feasible greedy
	// solution that also met QoS; when greedy failed QoS the comparison is
	// rate-only and may go either way, so only assert when both are met.
	if gRep.AllQoSMet && eRep.AllQoSMet && eRep.TotalRateBps < gRep.TotalRateBps-1e-6 {
		t.Fatalf("exact (%v bps) worse than greedy (%v bps)", eRep.TotalRateBps, gRep.TotalRateBps)
	}
}

func TestExactRespectsQoS(t *testing.T) {
	p := smallProblem(t, 8)
	alloc, res, err := p.SolveExact(minlp.Options{MaxNodes: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != minlp.StatusOptimal {
		t.Skipf("status %v", res.Status)
	}
	rep, _ := p.Evaluate(alloc)
	if !rep.AllQoSMet {
		t.Fatalf("exact solution does not meet QoS: %+v", rep.QoSMet)
	}
}

func TestPSOProducesReasonableAllocation(t *testing.T) {
	p := smallProblem(t, 9)
	alloc, res, err := p.SolvePSO(pso.Options{Seed: 9, Swarm: 25, MaxIter: 150})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evals == 0 {
		t.Fatal("pso did no work")
	}
	rep, err := p.Evaluate(alloc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BudgetViolated {
		t.Fatal("pso violated budget (penalty should prevent this)")
	}
	if rep.TotalRateBps <= 0 {
		t.Fatal("pso allocated nothing")
	}
}

func TestClassStringer(t *testing.T) {
	if ClassEMBB.String() != "eMBB" || ClassURLLC.String() != "URLLC" || ClassMMTC.String() != "mMTC" {
		t.Fatal("class names wrong")
	}
}

func TestURLLCSNRFloorFiltersColumns(t *testing.T) {
	p := smallProblem(t, 10)
	cols := p.columns().cols
	for _, c := range cols {
		if p.Users[c.u].Class == ClassURLLC {
			snrDB := 10 * math.Log10(p.Inst.SNR(c.u, c.rb, p.Levels[c.level]))
			if snrDB < p.Reqs[ClassURLLC].MinSNRdB-1e-9 {
				t.Fatalf("column below URLLC SNR floor admitted: %v dB", snrDB)
			}
		}
	}
}

func BenchmarkGreedy(b *testing.B) {
	p, err := GenerateProblem(2, 2, 2, 12, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = p.SolveGreedy()
	}
}

func BenchmarkExactSmall(b *testing.B) {
	p, err := GenerateProblem(1, 1, 1, 5, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = p.SolveExact(minlp.Options{MaxNodes: 50000})
	}
}

func TestCapacityBoundDominatesSolvers(t *testing.T) {
	p := smallProblem(t, 12)
	bound := p.CapacityBound()
	if bound <= 0 {
		t.Fatal("degenerate capacity bound")
	}
	greedy, err := p.SolveGreedy()
	if err != nil {
		t.Fatal(err)
	}
	gRep, _ := p.Evaluate(greedy)
	if gRep.TotalRateBps > bound+1e-6 {
		t.Fatalf("greedy rate %v exceeds capacity bound %v", gRep.TotalRateBps, bound)
	}
	alloc, res, err := p.SolveExact(minlp.Options{MaxNodes: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status == minlp.StatusOptimal {
		eRep, _ := p.Evaluate(alloc)
		if eRep.TotalRateBps > bound+1e-6 {
			t.Fatalf("exact rate %v exceeds capacity bound %v", eRep.TotalRateBps, bound)
		}
	}
}

func TestBudgetIncumbentIsFeasible(t *testing.T) {
	// Force a budget exit and confirm the returned incumbent (if any)
	// respects the model constraints.
	p, err := GenerateProblem(2, 1, 2, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	alloc, res, err := p.SolveExact(minlp.Options{MaxNodes: 300})
	if err != nil && !errors.Is(err, minlp.ErrBudget) {
		t.Fatal(err)
	}
	if alloc == nil {
		t.Skip("no incumbent within 300 nodes")
	}
	rep, err := p.Evaluate(alloc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BudgetViolated || rep.SNRViolated {
		t.Fatal("budget incumbent violates constraints")
	}
	if res.Status != minlp.StatusBudget && res.Status != minlp.StatusOptimal {
		t.Fatalf("unexpected status %v", res.Status)
	}
}
