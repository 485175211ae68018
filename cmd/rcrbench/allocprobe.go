package main

// Hot-root allocation probes: every exported //rcr:hot root is driven
// through testing.AllocsPerRun and must report exactly 0 allocs/op. This is
// the runtime side of the rcrlint allochot contract — the static rule proves
// no allocation site is *reachable* from a hot root, `rcrlint -escapes`
// cross-checks the compiler's escape analysis, and this probe pins the
// observable end state. Unexported hot roots (lp.pivot, stft.analyzeFrame)
// cannot be called from here; they are covered by the other two layers.
//
// captureBaseline records the measured allocs/op in the baseline file and
// fails the capture outright when a probe is nonzero, so a regression cannot
// be silently committed as the new baseline.

import (
	"fmt"
	"testing"

	"repro/internal/fft"
	"repro/internal/mat"
	"repro/internal/prob"
	"repro/internal/rng"
	"repro/internal/wire"
)

// AllocProbe is one hot-root allocs/op measurement in a baseline file.
type AllocProbe struct {
	Name        string  `json:"name"`
	Size        int     `json:"size"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// allocProbes measures allocs/op for each exported hot root and returns an
// error naming any probe that allocates.
func allocProbes(seed uint64) ([]AllocProbe, error) {
	r := rng.New(seed + 2)
	const n = 512
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = r.Norm()
		b[i] = r.Norm()
	}
	m := mat.New(n, n)
	for i := range m.Data {
		m.Data[i] = r.Norm()
	}
	out := make([]float64, n)

	// Plan fixtures: the factorization plans promise allocation-free
	// Factor/SolveInto/Decompose/ProjectPSDInto once constructed. The size
	// keeps ProjectPSDInto's internal GEMM within one par chunk so the
	// measurement pins the kernels, not the fan-out machinery.
	const pn = 32
	spd, err := spdMatrix(r, pn)
	if err != nil {
		return nil, err
	}
	sym := randSym(r, pn)
	rhs := randVec(r, pn)
	sol := make([]float64, pn)
	cholPlan := mat.NewCholPlan(pn)
	ldlPlan := mat.NewLDLPlan(pn)
	luPlan := mat.NewLUPlan(pn)
	eigPlan := mat.NewEigPlan(pn)
	psd := mat.New(pn, pn)

	const fn = 1024
	plan := fft.NewPlan(fn)
	buf := make([]complex128, fn)
	for i := range buf {
		buf[i] = complex(r.Norm(), r.Norm())
	}

	// Wire codec steady state: encode into a reused writer and decode into a
	// reused problem must both be allocation-free (the per-entry path the
	// persistent cache's Snapshot/Load hot loops run). Not //rcr:hot roots —
	// this is the codec's own 0-alloc contract from DESIGN.md §15.
	wireProblem := rraColumnIR()
	wireW := wire.GetWriter()
	defer wire.PutWriter(wireW)
	wireProblem.EncodeWire(wireW)
	wireFrame := append([]byte(nil), wireW.Bytes()...)
	wireInto := &prob.Problem{}
	if _, err := prob.DecodeProblem(wireFrame, wireInto); err != nil {
		return nil, err
	}

	sink := 0.0
	probes := []struct {
		name string
		size int
		fn   func()
	}{
		{"mat.VecDot", n, func() { sink += mat.VecDot(a, b) }},
		{"mat.VecNorm", n, func() { sink += mat.VecNorm(a) }},
		{"mat.Matrix.MulVecInto", n, func() { m.MulVecInto(out, a) }},
		{"mat.CholPlan.Factor+SolveInto", pn, func() {
			if cholPlan.Factor(spd) != nil {
				panic("alloc probe: cholesky factor failed")
			}
			cholPlan.SolveInto(sol, rhs)
		}},
		{"mat.LDLPlan.Factor+SolveInto", pn, func() {
			if ldlPlan.Factor(spd) != nil {
				panic("alloc probe: ldl factor failed")
			}
			ldlPlan.SolveInto(sol, rhs)
		}},
		{"mat.LUPlan.Factor+SolveInto", pn, func() {
			if luPlan.Factor(spd) != nil {
				panic("alloc probe: lu factor failed")
			}
			luPlan.SolveInto(sol, rhs)
		}},
		{"mat.EigPlan.Decompose", pn, func() {
			if eigPlan.Decompose(sym) != nil {
				panic("alloc probe: eig decompose failed")
			}
		}},
		{"mat.EigPlan.ProjectPSDInto", pn, func() {
			if eigPlan.ProjectPSDInto(psd, sym) != nil {
				panic("alloc probe: psd projection failed")
			}
		}},
		{"fft.Plan.Do", fn, func() { plan.Do(buf, false); plan.Do(buf, true) }},
		{"wire.EncodeWire", wireProblem.NumVars, func() {
			wireW.Reset()
			wireProblem.EncodeWire(wireW)
		}},
		{"wire.DecodeProblem", wireProblem.NumVars, func() {
			if _, err := prob.DecodeProblem(wireFrame, wireInto); err != nil {
				panic("alloc probe: wire decode failed")
			}
		}},
	}

	var res []AllocProbe
	var bad []string
	for _, p := range probes {
		allocs := testing.AllocsPerRun(100, p.fn)
		res = append(res, AllocProbe{Name: p.name, Size: p.size, AllocsPerOp: allocs})
		if allocs != 0 {
			bad = append(bad, fmt.Sprintf("%s=%g", p.name, allocs))
		}
	}
	_ = sink
	if len(bad) > 0 {
		return res, fmt.Errorf("hot roots must be allocation-free, got allocs/op: %v", bad)
	}
	return res, nil
}
