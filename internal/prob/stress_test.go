package prob_test

// Concurrency stress for the cache/certifier interplay: many goroutines
// share one Cache across hit and miss paths while a deterministic subset of
// solves is corrupted through the Tamper seam. Run under -race (ci.sh
// does), this pins that a corrupted solve never changes a concurrent clean
// one — every clean solve is bit-identical to an uncached solve — and that
// the stats counters stay coherent.

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cert"
	"repro/internal/guard"
	"repro/internal/prob"
)

func TestConcurrentSolvesSharedCache(t *testing.T) {
	// Three same-shape knapsack variants (content churn → misses) with
	// known optima; repeats of the same rates exercise verbatim hits.
	type variant struct {
		rates []float64
		opt   float64
	}
	vars := []variant{
		{[]float64{10, 13, 7}, 20}, // (0,1,1)
		{[]float64{10, 14, 7}, 21}, // (0,1,1)
		{[]float64{12, 13, 7}, 20}, // (0,1,1); (1,0,1) ties at 19
	}
	want := make([]*prob.Result, len(vars))
	for i, v := range vars {
		res, err := prob.Solve(knapsackIR(v.rates), prob.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	cache := prob.NewCache()
	const goroutines = 8
	const iters = 24
	var wg sync.WaitGroup
	var corrupted, clean atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				vi := (g + i) % len(vars)
				v := vars[vi]
				opts := prob.Options{Cache: cache}
				poison := (g*iters+i)%5 == 0
				if poison {
					// Hand back a known-infeasible point; MaxRetries -1 keeps
					// the ladder off so the stress stays fast and every
					// poisoned solve ends in a typed degradation.
					opts.Cert = prob.CertConfig{MaxRetries: -1}
					opts.Tamper = func(r *prob.Result) {
						if r.X != nil {
							r.X = []float64{1, 1, 1}
						}
					}
				}
				res, err := prob.Solve(knapsackIR(v.rates), opts)
				if res == nil {
					t.Errorf("goroutine %d iter %d: nil result (err %v)", g, i, err)
					continue
				}
				if poison {
					corrupted.Add(1)
					if err == nil || res.Status == guard.StatusConverged {
						t.Errorf("goroutine %d iter %d: poisoned solve accepted: %v %v", g, i, res.Status, err)
					}
					if res.Cert == nil || res.Cert.Verdict != cert.VerdictFail {
						t.Errorf("goroutine %d iter %d: poisoned solve certificate %v", g, i, res.Cert)
					}
					continue
				}
				clean.Add(1)
				if err != nil {
					t.Errorf("goroutine %d iter %d: clean solve failed: %v", g, i, err)
					continue
				}
				// The safety property under concurrent corruption: every
				// clean solve converges to its variant's true optimum with a
				// passing certificate, bit-identical to an uncached solve, no
				// matter which poisoned solves ran around it.
				if res.Status != guard.StatusConverged || math.Abs(res.Objective-v.opt) > 1e-9 {
					t.Errorf("goroutine %d iter %d: rates %v → status %v obj %g, want Converged %g",
						g, i, v.rates, res.Status, res.Objective, v.opt)
				}
				if res.Cert == nil || res.Cert.Verdict != cert.VerdictPass {
					t.Errorf("goroutine %d iter %d: clean solve certificate %v", g, i, res.Cert)
				}
				sameAnswer(t, fmt.Sprintf("goroutine %d iter %d", g, i), res, want[vi])
			}
		}(g)
	}
	wg.Wait()
	st := cache.Stats()
	if total := int(corrupted.Load() + clean.Load()); st.Hits+st.Misses != total {
		t.Errorf("stats %+v: hits+misses = %d, want %d (one record per solve)", st, st.Hits+st.Misses, total)
	}
	if st.Hits == 0 {
		t.Errorf("stress never exercised reuse: %+v", st)
	}
}

// knapsackNIR builds an n-item knapsack IR: each distinct n is a distinct
// Shape fingerprint (so the stress spreads across cache shards), while
// different rate vectors at one n collide on Shape and differ on Content.
func knapsackNIR(n int, bump float64) *prob.Problem {
	rates := make([]float64, n)
	weights := make([]float64, n)
	hi := make([]float64, n)
	ints := make([]int, n)
	for i := 0; i < n; i++ {
		rates[i] = float64(5+i) + bump
		weights[i] = float64(1 + i%3)
		hi[i] = 1
		ints[i] = i
	}
	return &prob.Problem{
		NumVars: n,
		Obj:     prob.Objective{Maximize: true, Lin: rates},
		Hi:      hi,
		Integer: ints,
		Lin:     []prob.LinCon{{Coeffs: weights, Sense: prob.LE, RHS: float64(n)}},
	}
}

// TestShardedCacheStress hammers the sharded cache from 8 goroutines over
// distinct shapes (spread across shards) and colliding fingerprints (same
// shape, different content), then re-runs the identical workload serially
// and compares the CacheStats totals. The workload is phase-structured so
// the invariant counters are interleaving-independent:
//
//	phase 1 — clean solves over every (shape, content) pair, repeats
//	  included, so hits and misses are both exercised;
//	phase 2 — every goroutine re-solves every shape with a Tampered
//	  (infeasible) result: certification fails on every one;
//
// and a serial recovery pass then re-solves every shape clean, which must
// be bit-identical to an uncached solve.
func TestShardedCacheStress(t *testing.T) {
	const (
		goroutines = 8
		shapes     = 8 // n = 3..10 → 8 distinct Shape fingerprints
		variants   = 3
		rounds     = 2
	)
	run := func(parallel bool) (prob.CacheStats, int) {
		cache := prob.NewCache()
		var solves atomic.Int64
		phase1 := func(g int) {
			for round := 0; round < rounds; round++ {
				for s := 0; s < shapes; s++ {
					v := (g + round + s) % variants
					res, err := prob.Solve(knapsackNIR(3+s, float64(v)), prob.Options{Cache: cache})
					solves.Add(1)
					if err != nil || res == nil || res.Status != guard.StatusConverged {
						t.Errorf("phase1 g%d shape%d v%d: status %v err %v", g, s, v, statusOf(res), err)
					}
				}
			}
		}
		phase2 := func(g int) {
			for s := 0; s < shapes; s++ {
				opts := prob.Options{
					Cache: cache,
					Cert:  prob.CertConfig{MaxRetries: -1},
					Tamper: func(r *prob.Result) {
						if r.X != nil {
							for i := range r.X {
								r.X[i] = 2 // violates the 0/1 box on every item
							}
						}
					},
				}
				res, err := prob.Solve(knapsackNIR(3+s, 0), opts)
				solves.Add(1)
				if err == nil || res == nil || res.Status == guard.StatusConverged {
					t.Errorf("phase2 g%d shape%d: poisoned solve accepted (status %v err %v)", g, s, statusOf(res), err)
				}
			}
		}
		fanout := func(phase func(int)) {
			if !parallel {
				for g := 0; g < goroutines; g++ {
					phase(g)
				}
				return
			}
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					phase(g)
				}(g)
			}
			wg.Wait()
		}
		fanout(phase1)
		fanout(phase2)
		// Post-poison recovery: every shape solves clean again, exactly as
		// if no cache were attached — no poisoned answer leaked into it.
		for s := 0; s < shapes; s++ {
			res, err := prob.Solve(knapsackNIR(3+s, 0), prob.Options{Cache: cache})
			solves.Add(1)
			if err != nil || res.Status != guard.StatusConverged {
				t.Errorf("post-poison shape%d: status %v err %v", s, statusOf(res), err)
				continue
			}
			want, err := prob.Solve(knapsackNIR(3+s, 0), prob.Options{})
			if err != nil {
				t.Fatal(err)
			}
			sameAnswer(t, fmt.Sprintf("post-poison shape%d", s), res, want)
		}
		return cache.Stats(), int(solves.Load())
	}

	serialStats, serialSolves := run(false)
	parStats, parSolves := run(true)

	if parSolves != serialSolves {
		t.Fatalf("workloads diverged: %d parallel vs %d serial solves", parSolves, serialSolves)
	}
	// One record per solve, sharded or not.
	if got, want := parStats.Hits+parStats.Misses, parSolves; got != want {
		t.Errorf("parallel hits+misses = %d, want %d (stats %+v)", got, want, parStats)
	}
	if got, want := serialStats.Hits+serialStats.Misses, serialSolves; got != want {
		t.Errorf("serial hits+misses = %d, want %d (stats %+v)", got, want, serialStats)
	}
	if parStats.Hits == 0 || serialStats.Hits == 0 {
		t.Errorf("stress never hit verbatim: parallel %+v serial %+v", parStats, serialStats)
	}
}

// statusOf is a nil-safe status reader for error messages.
func statusOf(r *prob.Result) guard.Status {
	if r == nil {
		return guard.StatusOK
	}
	return r.Status
}
