package main

// Kernel-overhaul probe series (ROADMAP item 4, DESIGN.md §13): dense
// factorization + triangular solve, symmetric eigendecomposition, a GEMM
// size sweep (the committed mat_mul probe only measured n=192), batched
// small-system solves in the many-small-SDPs shape that per-cell
// decomposition produces, and the two solver inner loops those kernels sit
// under (QP barrier Newton steps, SDP ADMM sweeps). Sizes bracket the
// n≈64–192 range the relaxation pipeline actually dispatches.
//
// Like kernelProbes, every input is seeded. The factorization and batch
// probes drive the plan APIs (CholPlan Factor+SolveInto, EigPlan.Decompose,
// mat.BatchSolve) — the same logical operations the pre-plan wrappers
// timed, now through the interface the solver inner loops actually hold, so
// BENCH_pre/BENCH_post captures taken at different commits stay comparable.

import (
	"errors"
	"fmt"

	"repro/internal/mat"
	"repro/internal/qp"
	"repro/internal/rng"
	"repro/internal/sdp"
)

// randVec fills a fresh length-n vector from r.
func randVec(r *rng.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.Norm()
	}
	return v
}

// randSym returns a random symmetric n×n matrix.
func randSym(r *rng.Rand, n int) *mat.Matrix {
	a := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := r.Norm()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	return a
}

// spdMatrix returns MᵀM + n·I for random M: symmetric positive definite and
// well conditioned at every probe size.
func spdMatrix(r *rng.Rand, n int) (*mat.Matrix, error) {
	m := mat.New(n, n)
	for i := range m.Data {
		m.Data[i] = r.Norm()
	}
	a, err := m.T().Mul(m)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		a.Add(i, i, float64(n))
	}
	return a, nil
}

// matProbes builds the factorization/eig/GEMM/batch probe series.
func matProbes(seed uint64) ([]probe, func(), error) {
	r := rng.New(seed + 4)
	var probes []probe

	// Cholesky factor + solve at the sizes the QP/SDP inner loops see,
	// through the plan the loops hold across iterations.
	for _, n := range []int{64, 128, 192} {
		spd, err := spdMatrix(r, n)
		if err != nil {
			return nil, nil, err
		}
		rhs := randVec(r, n)
		x := make([]float64, n)
		plan := mat.NewCholPlan(n)
		probes = append(probes, probe{name: "mat_cholesky", size: n, fn: func() error {
			if err := plan.Factor(spd); err != nil {
				return err
			}
			plan.SolveInto(x, rhs)
			return nil
		}})
	}

	// Full symmetric eigendecomposition (the SDP PSD-projection kernel).
	for _, n := range []int{64, 128} {
		sym := randSym(r, n)
		plan := mat.NewEigPlan(n)
		probes = append(probes, probe{name: "mat_symeig", size: n, fn: func() error {
			return plan.Decompose(sym)
		}})
	}

	// GEMM size sweep below the committed n=192 mat_mul probe.
	for _, n := range []int{64, 96, 128} {
		a := mat.New(n, n)
		b := mat.New(n, n)
		for i := range a.Data {
			a.Data[i] = r.Norm()
			b.Data[i] = r.Norm()
		}
		probes = append(probes, probe{name: "mat_mul", size: n, fn: func() error {
			_, err := a.Mul(b)
			return err
		}})
	}

	// Batched small-system solves: 64 independent diagonally dominant n×n
	// systems per op — the shape a per-cell decomposition hands the kernel.
	const batchLen = 64
	for _, n := range []int{16, 32, 64} {
		as := make([]*mat.Matrix, batchLen)
		bs := make([][]float64, batchLen)
		for i := range as {
			a := mat.New(n, n)
			for k := range a.Data {
				a.Data[k] = r.Norm()
			}
			for d := 0; d < n; d++ {
				a.Add(d, d, float64(n))
			}
			as[i] = a
			bs[i] = randVec(r, n)
		}
		probes = append(probes, probe{name: "mat_batch_solve", size: n, fn: func() error {
			xs, errs := mat.BatchSolve(as, bs)
			for _, err := range errs {
				if err != nil {
					return err
				}
			}
			if len(xs) != batchLen {
				return fmt.Errorf("batch solve returned %d solutions", len(xs))
			}
			return nil
		}})
	}

	qpProbe, err := qpBarrierProbe(seed)
	if err != nil {
		return nil, nil, err
	}
	return append(probes, qpProbe, sdpADMMProbe(seed)), nil, nil
}

// qpBarrierProbe times a full barrier solve of a fixed strictly feasible
// QCQP — n=40 variables, one ball constraint, four halfspaces — so the
// ns/op tracks the Newton-step cost (Hessian assembly, KKT solve, line
// search) the ≥3x kernel target must show up in.
func qpBarrierProbe(seed uint64) (probe, error) {
	const n = 40
	r := rng.New(seed + 5)
	obj := qp.Quad{P: mat.Identity(n).Scale(2), Q: randVec(r, n)}
	ball := qp.Quad{P: mat.Identity(n).Scale(2), R: -25} // ‖x‖² <= 25
	ineq := []qp.Quad{ball}
	for k := 0; k < 4; k++ {
		a := randVec(r, n)
		for i := range a {
			a[i] *= 0.1
		}
		ineq = append(ineq, qp.Quad{Q: a, R: -1}) // aᵀx <= 1, strict at 0
	}
	//lint:ignore rawproblem kernel probe measures the raw barrier backend; routing through the prob IR would fold lowering cost into the Newton-step timing
	p := &qp.Problem{F0: obj, Ineq: ineq}
	x0 := make([]float64, n)
	opts := qp.Options{Tol: 1e-6}
	//lint:ignore dropstatus probe warm-up: only solvability matters here, the iterate is discarded
	if _, err := qp.Solve(p, x0, opts); err != nil {
		return probe{}, fmt.Errorf("qp probe: %w", err)
	}
	return probe{name: "qp_barrier_iter", size: n, fn: func() error {
		//lint:ignore dropstatus timing probe: only wall-clock matters, the iterate is discarded
		_, err := qp.Solve(p, x0, opts)
		return err
	}}, nil
}

// sdpADMMProbe times 80 fixed ADMM iterations (tolerance kept unreachable)
// of an n=24 SDP with a trace constraint and three pinned entries: every
// iteration runs the affine projection (Cholesky solve of the constraint
// Gram) and the PSD projection (full eigendecomposition), the two kernels
// the plan-cached overhaul targets.
func sdpADMMProbe(seed uint64) probe {
	const n = 24
	r := rng.New(seed + 6)
	c := randSym(r, n)
	//lint:ignore rawproblem kernel probe measures the raw ADMM backend; routing through the prob IR would fold lowering cost into the iteration timing
	p := &sdp.Problem{
		C: c,
		A: []*mat.Matrix{mat.Identity(n), sdp.BasisElem(n, 0, 1), sdp.BasisElem(n, 2, 2), sdp.BasisElem(n, 3, 5)},
		B: []float64{2, 0.1, 0.5, -0.1},
	}
	opts := sdp.Options{MaxIter: 80, Tol: 1e-12}
	return probe{name: "sdp_admm_iter", size: n, fn: func() error {
		//lint:ignore dropstatus timing probe: only wall-clock matters, the iterate is discarded
		_, err := sdp.Solve(p, opts)
		if err != nil && !errors.Is(err, sdp.ErrNoProgress) {
			return err
		}
		return nil
	}}
}
