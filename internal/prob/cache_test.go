package prob_test

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/guard"
	"repro/internal/par"
	"repro/internal/prob"
	"repro/internal/rng"
)

// knapsackIR builds the binary knapsack used throughout the cache tests;
// rates parameterizes the objective so content can change under a fixed
// shape.
func knapsackIR(rates []float64) *prob.Problem {
	return &prob.Problem{
		NumVars: 3,
		Obj:     prob.Objective{Maximize: true, Lin: rates},
		Hi:      []float64{1, 1, 1},
		Integer: []int{0, 1, 2},
		Lin:     []prob.LinCon{{Coeffs: []float64{3, 4, 2}, Sense: prob.LE, RHS: 6}},
	}
}

func TestFingerprintShapeContentContract(t *testing.T) {
	base := knapsackIR([]float64{10, 13, 7}).Fingerprint()

	// Identical problems hash identically at both precisions.
	if again := knapsackIR([]float64{10, 13, 7}).Fingerprint(); again != base {
		t.Fatalf("identical problems diverge: %+v vs %+v", base, again)
	}

	// A coefficient change preserves Shape and moves Content.
	coeff := knapsackIR([]float64{10, 13, 8}).Fingerprint()
	if coeff.Shape != base.Shape {
		t.Fatal("coefficient change moved the Shape hash")
	}
	if coeff.Content == base.Content {
		t.Fatal("coefficient change left the Content hash unchanged")
	}

	// Structural edits move the Shape hash.
	structural := map[string]*prob.Problem{
		"extra row": func() *prob.Problem {
			p := knapsackIR([]float64{10, 13, 7})
			p.Lin = append(p.Lin, prob.LinCon{Coeffs: []float64{1, 0, 0}, Sense: prob.LE, RHS: 1})
			return p
		}(),
		"sense flip": func() *prob.Problem {
			p := knapsackIR([]float64{10, 13, 7})
			p.Lin[0].Sense = prob.GE
			return p
		}(),
		"integrality dropped": func() *prob.Problem {
			p := knapsackIR([]float64{10, 13, 7})
			p.Integer = nil
			return p
		}(),
		"maximize flipped": func() *prob.Problem {
			p := knapsackIR([]float64{10, 13, 7})
			p.Obj.Maximize = false
			return p
		}(),
		"bound kind": func() *prob.Problem {
			p := knapsackIR([]float64{10, 13, 7})
			p.Hi[2] = math.Inf(1) // finite → infinite flips the boundKind word
			return p
		}(),
	}
	for name, p := range structural {
		if fp := p.Fingerprint(); fp.Shape == base.Shape {
			t.Errorf("%s: Shape hash unchanged", name)
		}
	}

	// A bound *value* change (same finiteness pattern) is content-only: the
	// lp standard-form conversion branches on finiteness, not magnitude.
	p := knapsackIR([]float64{10, 13, 7})
	p.Hi[2] = 2
	if fp := p.Fingerprint(); fp.Shape != base.Shape || fp.Content == base.Content {
		t.Error("finite bound value change should move Content only")
	}
}

// TestCacheHitOnIdenticalContent pins the first leg of the cache contract:
// equal Shape and Content reuse the compiled backend form verbatim.
func TestCacheHitOnIdenticalContent(t *testing.T) {
	cache := prob.NewCache()
	first, err := prob.Solve(knapsackIR([]float64{10, 13, 7}), prob.Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("first solve reported a cache hit")
	}
	second, err := prob.Solve(knapsackIR([]float64{10, 13, 7}), prob.Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("identical re-solve missed the cache")
	}
	if second.Objective != first.Objective || second.Status != first.Status {
		t.Fatalf("cached solve diverged: %+v vs %+v", second, first)
	}
	st := cache.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

// TestCacheWarmStartOnShapeMatch pins the second leg: same Shape with new
// coefficients re-lowers and solves from scratch, because a cache entry
// carries no solution. A shape match is warm-started only through the
// caller's Options.Incumbent, which Solve checks feasible against the *new*
// instance before branch and bound may use it.
func TestCacheWarmStartOnShapeMatch(t *testing.T) {
	cache := prob.NewCache()
	first, err := prob.Solve(knapsackIR([]float64{10, 13, 7}), prob.Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	// Same shape, perturbed objective: the cache must neither hit nor steer
	// the search.
	res, err := prob.Solve(knapsackIR([]float64{10, 14, 7}), prob.Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Fatal("perturbed problem reported a verbatim cache hit")
	}
	want, err := prob.Solve(knapsackIR([]float64{10, 14, 7}), prob.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, "shape match", res, want)
	if st := cache.Stats(); st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 0 hits / 2 misses", st)
	}

	// The previous optimum (0,1,1) is still feasible (constraints
	// unchanged), so the caller may hand it over as the incumbent.
	seeded, err := prob.Solve(knapsackIR([]float64{10, 14, 7}),
		prob.Options{Cache: cache, Incumbent: first.X})
	if err != nil {
		t.Fatal(err)
	}
	if seeded.Status != guard.StatusConverged || math.Abs(seeded.Objective-21) > 1e-9 {
		t.Fatalf("caller-seeded solve: status %v obj %g, want Converged 21", seeded.Status, seeded.Objective)
	}
}

// TestCacheDisableWarmStarts pins the deprecated switch as a no-op: the
// cache is forms-only in every mode, so a cache with DisableWarmStarts set
// answers and counts exactly like one without, and verbatim reuse of the
// compiled form stays on.
func TestCacheDisableWarmStarts(t *testing.T) {
	plain := prob.NewCache()
	switched := prob.NewCache()
	if switched.DisableWarmStarts() != switched {
		t.Fatal("DisableWarmStarts did not return its receiver")
	}
	for i, rates := range [][]float64{{10, 13, 7}, {10, 14, 7}, {10, 14, 7}} {
		a, err := prob.Solve(knapsackIR(rates), prob.Options{Cache: switched})
		if err != nil {
			t.Fatal(err)
		}
		b, err := prob.Solve(knapsackIR(rates), prob.Options{Cache: plain})
		if err != nil {
			t.Fatal(err)
		}
		if a.CacheHit != b.CacheHit {
			t.Fatalf("solve %d: cache hit %v with the switch, %v without", i, a.CacheHit, b.CacheHit)
		}
		sameAnswer(t, "switched cache", a, b)
	}
	if a, b := switched.Stats(), plain.Stats(); a != b {
		t.Fatalf("stats %+v with the switch, %+v without", a, b)
	}
	if st := switched.Stats(); st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses", st)
	}
}

// TestCacheInfeasibleIncumbentRejected: when the constraint set tightens so
// a previous solution is no longer feasible, handing it over as the
// incumbent must not seed the solve (an infeasible incumbent would prune
// the true optimum): the answer equals an unseeded, uncached solve.
func TestCacheInfeasibleIncumbentRejected(t *testing.T) {
	cache := prob.NewCache()
	first, err := prob.Solve(knapsackIR([]float64{10, 13, 7}), prob.Options{Cache: cache})
	if err != nil {
		t.Fatal(err) // optimum (0,1,1), weight 6
	}
	tightIR := func() *prob.Problem {
		p := knapsackIR([]float64{10, 13, 7})
		p.Lin[0].RHS = 3 // weight cap 3: (0,1,1) now violates the row
		return p
	}
	res, err := prob.Solve(tightIR(), prob.Options{Cache: cache, Incumbent: first.X})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != guard.StatusConverged || math.Abs(res.Objective-10) > 1e-9 {
		t.Fatalf("tightened solve: status %v obj %g, want Converged 10", res.Status, res.Objective)
	}
	want, err := prob.Solve(tightIR(), prob.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, "infeasible incumbent", res, want)
}

// TestCacheSDPWarmStart covers the matrix-variable arm: a same-shape
// trace-min re-solve through the cache runs ADMM from its default start,
// bit-identical to an uncached solve; a warm start comes only from the
// caller's Options.SDP.X0.
func TestCacheSDPWarmStart(t *testing.T) {
	rmp := func(off float64) *prob.Problem {
		p, err := prob.NewDiagLowRankRMP(mustMat(t, [][]float64{{2, off}, {off, 2}}))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cache := prob.NewCache()
	first, err := prob.Solve(rmp(1), prob.Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	res, err := prob.Solve(rmp(0.5), prob.Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	want, err := prob.Solve(rmp(0.5), prob.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, "same-shape sdp", res, want)
	if math.Abs(res.XMat.At(0, 1)-0.5) > 1e-4 {
		t.Fatalf("Rc off-diagonal = %g, want 0.5", res.XMat.At(0, 1))
	}

	var o prob.Options
	o.Cache = cache
	o.SDP.X0 = first.XMat
	seeded, err := prob.Solve(rmp(0.5), o)
	if err != nil {
		t.Fatal(err)
	}
	if seeded.Status != guard.StatusConverged || math.Abs(seeded.XMat.At(0, 1)-0.5) > 1e-4 {
		t.Fatalf("caller-seeded sdp: status %v, Rc off-diagonal %g, want Converged 0.5",
			seeded.Status, seeded.XMat.At(0, 1))
	}
}

// sameAnswer fails unless got is bit-identical to want in everything a
// solve decides: status, backend, trail, objective, the solution (vector or
// matrix), and the backend's node or iteration count.
func sameAnswer(t *testing.T, label string, got, want *prob.Result) {
	t.Helper()
	bits := func(xs []float64) []uint64 {
		if xs == nil {
			return nil
		}
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	matBits := func(r *prob.Result) []uint64 {
		if r.XMat == nil {
			return nil
		}
		return bits(r.XMat.Data)
	}
	steps := func(r *prob.Result) int {
		switch {
		case r.MILP != nil:
			return r.MILP.Nodes
		case r.QP != nil:
			return r.QP.Iterations
		case r.SDP != nil:
			return r.SDP.Iterations
		}
		return 0
	}
	if got.Status != want.Status || got.Backend != want.Backend {
		t.Errorf("%s: status/backend %v/%s, want %v/%s", label, got.Status, got.Backend, want.Status, want.Backend)
	}
	if !reflect.DeepEqual(got.Trail, want.Trail) {
		t.Errorf("%s: trail %v, want %v", label, got.Trail, want.Trail)
	}
	if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
		t.Errorf("%s: objective %v, want %v (bitwise)", label, got.Objective, want.Objective)
	}
	if !reflect.DeepEqual(bits(got.X), bits(want.X)) {
		t.Errorf("%s: X %v, want %v (bitwise)", label, got.X, want.X)
	}
	if !reflect.DeepEqual(matBits(got), matBits(want)) {
		t.Errorf("%s: XMat differs bitwise", label)
	}
	if g, w := steps(got), steps(want); g != w {
		t.Errorf("%s: %d nodes/iterations, want %d", label, g, w)
	}
}

// columnMILP builds a qos-shaped column MILP (2 users × 4 RBs × 2 power
// levels): one column per RB, per-user power budgets with seeded weights,
// and per-user minimum rates. Every seed shares one Shape; the search
// needs a few dozen nodes, enough for a seeded incumbent to change it.
func columnMILP(seed uint64) *prob.Problem {
	const nU, nRB, nL = 2, 4, 2
	r := rng.New(seed)
	levels := []float64{0.1, 0.2}
	n := nU * nRB * nL
	p := &prob.Problem{NumVars: n, Hi: make([]float64, n), Integer: make([]int, n)}
	p.Obj = prob.Objective{Maximize: true, Lin: make([]float64, n)}
	for i := range p.Obj.Lin {
		p.Obj.Lin[i] = (1 + levels[i%nL]) * (1 + 0.25*r.Float64())
		p.Hi[i], p.Integer[i] = 1, i
	}
	for b := 0; b < nRB; b++ {
		row := prob.LinCon{Coeffs: make([]float64, n), Sense: prob.LE, RHS: 1}
		for u := 0; u < nU; u++ {
			for l := 0; l < nL; l++ {
				row.Coeffs[(u*nRB+b)*nL+l] = 1
			}
		}
		p.Lin = append(p.Lin, row)
	}
	for u := 0; u < nU; u++ {
		pow := prob.LinCon{Coeffs: make([]float64, n), Sense: prob.LE, RHS: 0.5}
		rate := prob.LinCon{Coeffs: make([]float64, n), Sense: prob.GE, RHS: 0.5}
		for i := u * nRB * nL; i < (u+1)*nRB*nL; i++ {
			pow.Coeffs[i] = levels[i%nL] * (1 + 0.3*r.Float64())
			rate.Coeffs[i] = 1 + levels[i%nL]
		}
		p.Lin = append(p.Lin, pow, rate)
	}
	return p
}

// TestCacheNeverChangesAnswer pins the cache contract for every backend: a
// solve through a cache that has just solved a same-shape neighbour (same
// structure, different coefficients) is bit-identical to an uncached
// solve, and so is the content-identical re-solve that hits the compiled
// form, at RCR_WORKERS=1 and 8. The cache shares compiled forms, never answers.
func TestCacheNeverChangesAnswer(t *testing.T) {
	relaxed := func(p *prob.Problem) *prob.Problem {
		p.Integer = nil
		return p
	}
	qpIR := func(lin float64) *prob.Problem {
		// min x² + lin·x over [0, 3]: the neighbour's minimizer is strictly
		// interior, so a cache that seeded the barrier would be noticed.
		return &prob.Problem{
			NumVars: 1,
			Obj:     prob.Objective{Quad: mustMat(t, [][]float64{{2}}), Lin: []float64{lin}},
			Hi:      []float64{3},
		}
	}
	rmp := func(off float64) *prob.Problem {
		p, err := prob.NewDiagLowRankRMP(mustMat(t, [][]float64{{2, off}, {off, 2}}))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name              string
		neighbour, target func() *prob.Problem
	}{
		{"lp", func() *prob.Problem { return relaxed(columnMILP(8)) }, func() *prob.Problem { return relaxed(columnMILP(108)) }},
		{"minlp", func() *prob.Problem { return columnMILP(8) }, func() *prob.Problem { return columnMILP(108) }},
		{"qp", func() *prob.Problem { return qpIR(-2) }, func() *prob.Problem { return qpIR(-2.5) }},
		{"sdp", func() *prob.Problem { return rmp(1) }, func() *prob.Problem { return rmp(0.5) }},
	}
	solve := func(t *testing.T, p *prob.Problem, c *prob.Cache) *prob.Result {
		t.Helper()
		res, err := prob.Solve(p, prob.Options{Cache: c})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []string{"1", "8"} {
				t.Setenv(par.EnvWorkers, workers)
				want := solve(t, tc.target(), nil)
				if want.Status != guard.StatusConverged || want.Backend != tc.name {
					t.Fatalf("uncached target: %v on %s", want.Status, want.Backend)
				}

				cache := prob.NewCache()
				solve(t, tc.neighbour(), cache)
				label := "workers=" + workers
				miss := solve(t, tc.target(), cache)
				if miss.CacheHit {
					t.Fatalf("%s: new content reported a cache hit", label)
				}
				sameAnswer(t, label+" after neighbour", miss, want)
				hit := solve(t, tc.target(), cache)
				if !hit.CacheHit {
					t.Fatalf("%s: content-identical re-solve missed", label)
				}
				sameAnswer(t, label+" on hit", hit, want)
			}
		})
	}
}

// TestCachedFormOwnsItsProblem: a caller may edit its problem in place
// after a cached solve — change a coefficient, then append a row so the
// edited problem has another Shape and never replaces the cached entry. A
// later content-identical solve must still hit a form of the original
// problem and answer exactly as an uncached solve does.
func TestCachedFormOwnsItsProblem(t *testing.T) {
	lpIR := func() *prob.Problem {
		// min -x-y, x+y <= 4, 0 <= x,y <= 3: optimum -4.
		return &prob.Problem{
			NumVars: 2,
			Obj:     prob.Objective{Lin: []float64{-1, -1}},
			Hi:      []float64{3, 3},
			Lin:     []prob.LinCon{{Coeffs: []float64{1, 1}, Sense: prob.LE, RHS: 4}},
		}
	}
	qpIR := func() *prob.Problem {
		// min x² - 2x over [0, 3]: optimum at x = 1.
		return &prob.Problem{
			NumVars: 1,
			Obj:     prob.Objective{Quad: mustMat(t, [][]float64{{2}}), Lin: []float64{-2}},
			Hi:      []float64{3},
		}
	}
	cases := []struct {
		name  string
		build func() *prob.Problem
		edit  func(p *prob.Problem)
	}{
		{"lp row coefficient", lpIR, func(p *prob.Problem) { p.Lin[0].Coeffs[0] = 2 }},
		{"lp bound", lpIR, func(p *prob.Problem) { p.Hi[0] = 0.5 }},
		{"qp objective matrix", qpIR, func(p *prob.Problem) { p.Obj.Quad.Data[0] = 8 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := prob.Solve(tc.build(), prob.Options{})
			if err != nil {
				t.Fatal(err)
			}
			cache := prob.NewCache()
			p := tc.build()
			if _, err := prob.Solve(p, prob.Options{Cache: cache}); err != nil {
				t.Fatal(err)
			}
			tc.edit(p)
			p.Lin = append(p.Lin, prob.LinCon{Coeffs: []float64{1}, Sense: prob.LE, RHS: 3})
			if _, err := prob.Solve(p, prob.Options{Cache: cache}); err != nil {
				t.Fatal(err)
			}
			got, err := prob.Solve(tc.build(), prob.Options{Cache: cache})
			if err != nil {
				t.Fatal(err)
			}
			if !got.CacheHit {
				t.Fatal("content-identical re-solve missed the cache")
			}
			sameAnswer(t, "after the caller's edit", got, want)
		})
	}
}

// TestNilCacheIsNoop: Solve with no cache behaves identically and the
// nil-safe Cache methods never panic.
func TestNilCacheIsNoop(t *testing.T) {
	var c *prob.Cache
	if st := c.Stats(); st != (prob.CacheStats{}) {
		t.Fatalf("nil cache stats = %+v", st)
	}
	res, err := prob.Solve(knapsackIR([]float64{10, 13, 7}), prob.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Fatalf("cacheless solve claims reuse: %+v", res)
	}
}
