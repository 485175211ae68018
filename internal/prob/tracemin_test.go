package prob_test

import (
	"errors"
	"testing"

	"repro/internal/mat"
	"repro/internal/prob"
	"repro/internal/rng"
)

// TestTraceMinimizationRecovery generates Rs = Rc0 + Rn0 with Rc0 rank-1
// PSD and Rn0 a positive diagonal, then checks the TMP recovers a
// decomposition with correct off-diagonals, PSD Rc, and low rank.
func TestTraceMinimizationRecovery(t *testing.T) {
	r := rng.New(42)
	n := 5
	v := make([]float64, n)
	for i := range v {
		v[i] = 1 + r.Float64() // bounded away from zero
	}
	rc0 := mat.OuterProduct(v, v)
	rs := rc0.Clone()
	for i := 0; i < n; i++ {
		rs.Add(i, i, 0.5+r.Float64())
	}
	d, err := prob.DecomposeDiagLowRank(rs, prob.TraceMinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Feasibility: Rc + Rn = Rs.
	if res := d.ResidualNorm(rs); res > 1e-5 {
		t.Fatalf("residual %v", res)
	}
	// Rc PSD.
	ok, err := mat.IsPSD(d.Rc, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("Rc is not PSD")
	}
	// Rn diagonal by construction; check it is not wildly negative.
	for i := 0; i < n; i++ {
		if d.Rn.At(i, i) < -1e-4 {
			t.Fatalf("Rn[%d][%d] = %v strongly negative", i, i, d.Rn.At(i, i))
		}
	}
	// Low rank: the trace surrogate should recover rank close to 1; allow 2
	// for solver tolerance.
	if d.RankRc > 2 {
		t.Fatalf("rank of Rc = %d, want <= 2 (true rank 1)", d.RankRc)
	}
	// The relaxation can only shrink the trace relative to the ground
	// truth (Rc0 is feasible for the TMP).
	tr0, _ := rc0.Trace()
	if d.Trace > tr0+1e-4 {
		t.Fatalf("relaxed trace %v exceeds feasible trace %v", d.Trace, tr0)
	}
}

func TestDecomposeValidatesInput(t *testing.T) {
	if _, err := prob.DecomposeDiagLowRank(mat.New(2, 3), prob.TraceMinOptions{}); err == nil {
		t.Fatal("want error for non-square")
	}
	asym, _ := mat.FromRows([][]float64{{1, 2}, {3, 1}})
	if _, err := prob.DecomposeDiagLowRank(asym, prob.TraceMinOptions{}); !errors.Is(err, prob.ErrNotSymmetric) {
		t.Fatalf("want ErrNotSymmetric, got %v", err)
	}
}

func TestRankByTrueMinimization(t *testing.T) {
	v := []float64{1, 2, 3}
	d := &prob.Decomposition{Rc: mat.OuterProduct(v, v)}
	rank, err := prob.RankByTrueMinimization(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rank != 1 {
		t.Fatalf("rank = %d, want 1", rank)
	}
}

func BenchmarkTraceMin5(b *testing.B) {
	r := rng.New(1)
	n := 5
	v := make([]float64, n)
	for i := range v {
		v[i] = 1 + r.Float64()
	}
	rs := mat.OuterProduct(v, v)
	for i := 0; i < n; i++ {
		rs.Add(i, i, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = prob.DecomposeDiagLowRank(rs, prob.TraceMinOptions{})
	}
}
