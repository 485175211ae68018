package rcr_test

import (
	"math"
	"testing"

	"repro"
	"repro/internal/mat"
	"repro/internal/prob"
	"repro/internal/verify"
)

func TestFacadeRRA(t *testing.T) {
	p, err := rcr.GenerateRRA(1, 1, 1, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := p.SolveGreedy()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Evaluate(alloc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalRateBps <= 0 {
		t.Fatal("facade RRA produced no rate")
	}
}

func TestFacadeVerification(t *testing.T) {
	net := &rcr.VerifyNetwork{Layers: []verify.AffineLayer{
		{W: [][]float64{{1, 1}, {1, -1}}, B: []float64{0, 0}},
		{W: [][]float64{{1, -1}}, B: []float64{0}},
	}}
	box := rcr.BoxAround([]float64{2.5, 0.25}, 0.25)
	spec := &rcr.VerifySpec{C: []float64{1}}
	res, err := rcr.VerifyExact(net, box, spec, rcr.ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != rcr.VerdictRobust {
		t.Fatalf("verdict %v, want robust", res.Verdict)
	}
}

func TestFacadeInertiaFit(t *testing.T) {
	fit, err := rcr.FitAdaptiveInertia(0.4, 0.9, 4, 15)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Schedule.Base <= 0 {
		t.Fatal("degenerate inertia fit")
	}
}

func TestFacadeRelaxationTools(t *testing.T) {
	// McCormick envelopes through the facade.
	under, over, err := rcr.McCormick(rcr.Interval{Lo: 0, Hi: 1}, rcr.Interval{Lo: 0, Hi: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(under) != 2 || len(over) != 2 {
		t.Fatalf("envelope counts %d/%d", len(under), len(over))
	}
	// QCQP through the facade: min -x s.t. ½·2x² - 1 <= 0 (x² <= 1) → x=1.
	p := &rcr.QCQP{
		F0: rcr.Quad{Q: []float64{-1}},
		Ineq: []rcr.Quad{
			{P: mat.Diag([]float64{2}), Q: []float64{0}, R: -1},
		},
	}
	res, err := rcr.SolveQCQP(p, []float64{0}, rcr.QCQPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1) > 1e-4 {
		t.Fatalf("QCQP optimum %v, want 1", res.X[0])
	}
	// Trace-minimization decomposition through the facade.
	v := []float64{1, 2}
	rs := mat.OuterProduct(v, v)
	rs.Add(0, 0, 0.5)
	rs.Add(1, 1, 0.5)
	dec, err := rcr.DecomposeDiagLowRank(rs, prob.TraceMinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if dec.RankRc > 1 {
		t.Fatalf("recovered rank %d, want 1", dec.RankRc)
	}
}
