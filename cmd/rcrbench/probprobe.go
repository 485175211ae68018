package main

// Probe pairs for the prob IR layer (DESIGN.md §10). Each pair times two
// sides of one cache/lowering contract with timePair's interleaved rounds,
// so host-load drift cancels out of the ratio:
//
//	prob_milp_compile / prob_milp_fingerprint — full lowering+compilation
//	  vs the structural fingerprint that lets the cache skip it; caching
//	  pays off only while the second stays well under the first.
//	prob_solve_uncached / prob_solve_cached — repeated bit-identical
//	  same-shape solves, re-lowered every call vs reusing the compiled
//	  backend form verbatim (Result.CacheHit).
//	prob_solve_certified / prob_solve_uncertified — the same solve with the
//	  a-posteriori certifier armed (the default) vs disabled; the ratio is
//	  the certificate's overhead on an honest converged solve, which the
//	  robustness budget in ISSUE/DESIGN.md §11 caps at 5%.

import (
	"fmt"

	"repro/internal/guard"
	"repro/internal/prob"
)

// rraColumnIR builds a synthetic column-selection MILP shaped like the qos
// RRA model — binary columns, one-per-RB rows, per-user power and min-rate
// rows — sized to solve in well under a millisecond so the probes measure
// registry overhead, not branch-and-bound search.
func rraColumnIR() *prob.Problem {
	const (
		nU, nRB, nL = 2, 4, 2
		budgetW     = 0.5
		minRate     = 0.5
	)
	levels := []float64{0.1, 0.2}
	n := nU * nRB * nL
	idx := func(u, rb, l int) int { return (u*nRB+rb)*nL + l }
	ir := &prob.Problem{
		NumVars: n,
		Obj:     prob.Objective{Maximize: true, Lin: make([]float64, n)},
		Hi:      make([]float64, n),
		Integer: make([]int, n),
	}
	for u := 0; u < nU; u++ {
		for rb := 0; rb < nRB; rb++ {
			for l := 0; l < nL; l++ {
				i := idx(u, rb, l)
				ir.Obj.Lin[i] = 1 + float64(l)
				ir.Hi[i] = 1
				ir.Integer[i] = i
			}
		}
	}
	for rb := 0; rb < nRB; rb++ {
		row := make([]float64, n)
		for u := 0; u < nU; u++ {
			for l := 0; l < nL; l++ {
				row[idx(u, rb, l)] = 1
			}
		}
		ir.Lin = append(ir.Lin, prob.LinCon{Coeffs: row, Sense: prob.LE, RHS: 1})
	}
	for u := 0; u < nU; u++ {
		pRow := make([]float64, n)
		rRow := make([]float64, n)
		for rb := 0; rb < nRB; rb++ {
			for l := 0; l < nL; l++ {
				pRow[idx(u, rb, l)] = levels[l]
				rRow[idx(u, rb, l)] = ir.Obj.Lin[idx(u, rb, l)]
			}
		}
		ir.Lin = append(ir.Lin,
			prob.LinCon{Coeffs: pRow, Sense: prob.LE, RHS: budgetW},
			prob.LinCon{Coeffs: rRow, Sense: prob.GE, RHS: minRate},
		)
	}
	return ir
}

// probPairs builds the IR-layer probe pairs.
func probPairs(uint64) ([]probe, func(), error) {
	fixed := rraColumnIR()
	n := fixed.NumVars

	solved := func(res *prob.Result, err error) error {
		if err != nil {
			return err
		}
		if res.Status != guard.StatusConverged {
			return fmt.Errorf("probe solve ended %v", res.Status)
		}
		return nil
	}

	// Side A lowers and compiles every call; side B computes the two-level
	// fingerprint — the whole cost of a cache hit's lookup key.
	compileSide := func() error {
		_, err := fixed.MILP()
		return err
	}
	fingerprintSide := func() error {
		fp := fixed.Fingerprint()
		if fp.Shape == 0 && fp.Content == 0 {
			return fmt.Errorf("degenerate fingerprint")
		}
		return nil
	}

	// Bit-identical repeated solves: uncached re-lowers per call, cached
	// reuses the compiled backend form after the first.
	hitCache := prob.NewCache()
	uncachedSide := func() error {
		return solved(prob.Solve(fixed, prob.Options{}))
	}
	cachedSide := func() error {
		return solved(prob.Solve(fixed, prob.Options{Cache: hitCache}))
	}

	// Certifier overhead on a clean converged solve: side A runs the default
	// armed certificate (feasibility residuals + objective/gap/bound checks),
	// side B disables it — the one legitimate use of CertConfig.Disable.
	certifiedSide := func() error {
		return solved(prob.Solve(fixed, prob.Options{}))
	}
	uncertifiedSide := func() error {
		return solved(prob.Solve(fixed, prob.Options{Cert: prob.CertConfig{Disable: true}}))
	}

	return []probe{
		{name: "prob_milp_compile", nameB: "prob_milp_fingerprint", size: n, fn: compileSide, fnB: fingerprintSide},
		{name: "prob_solve_uncached", nameB: "prob_solve_cached", size: n, fn: uncachedSide, fnB: cachedSide},
		{name: "prob_solve_certified", nameB: "prob_solve_uncertified", size: n, fn: certifiedSide, fnB: uncertifiedSide},
	}, nil, nil
}
