package serve_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/guard"
	"repro/internal/prob"
	"repro/internal/qos"
	"repro/internal/serve"
)

// testProblem generates a small reproducible RRA instance.
func testProblem(t *testing.T, seed uint64) *qos.Problem {
	t.Helper()
	p, err := qos.GenerateProblem(1, 1, 1, 6, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// evalBudgets returns per-class budgets bounded by eval caps only — no wall
// clocks — so server tests are scheduling-independent.
func evalBudgets() map[qos.Class]guard.Budget {
	return map[qos.Class]guard.Budget{
		qos.ClassURLLC: {MaxEvals: 1_000_000},
		qos.ClassEMBB:  {MaxEvals: 1_000_000},
		qos.ClassMMTC:  {MaxEvals: 1_000_000},
	}
}

func TestOutcomeExitCodes(t *testing.T) {
	want := map[serve.Outcome]int{
		serve.OutcomeServed: 0, serve.OutcomeError: 1, serve.OutcomeInfeasible: 2,
		serve.OutcomeExhausted: 3, serve.OutcomeDeadline: 4, serve.OutcomeCanceled: 5,
		serve.OutcomeUncertified: 6, serve.OutcomeShed: 7, serve.OutcomeDegraded: 8,
	}
	for o, code := range want {
		if o.ExitCode() != code {
			t.Errorf("%v.ExitCode() = %d, want %d", o, o.ExitCode(), code)
		}
	}
	if serve.Outcome(99).ExitCode() != 1 {
		t.Errorf("unknown outcome exit code = %d, want 1", serve.Outcome(99).ExitCode())
	}
}

// TestOutcomeForStatusTable pins the status→outcome classification that
// qossolver's exit codes ride on.
func TestOutcomeForStatusTable(t *testing.T) {
	want := map[guard.Status]serve.Outcome{
		guard.StatusOK:         serve.OutcomeServed,
		guard.StatusConverged:  serve.OutcomeServed,
		guard.StatusMaxIter:    serve.OutcomeExhausted,
		guard.StatusDiverged:   serve.OutcomeUncertified,
		guard.StatusTimeout:    serve.OutcomeDeadline,
		guard.StatusCanceled:   serve.OutcomeCanceled,
		guard.StatusInfeasible: serve.OutcomeInfeasible,
		guard.StatusUnbounded:  serve.OutcomeUncertified,
		guard.Status(42):       serve.OutcomeError,
	}
	for st, o := range want {
		if got := serve.OutcomeForStatus(st); got != o {
			t.Errorf("OutcomeForStatus(%v) = %v, want %v", st, got, o)
		}
	}
}

// TestServerServesAllClasses: a healthy server answers every class with a
// typed outcome, an allocation, and a coherent ladder trail; the counters
// add up.
func TestServerServesAllClasses(t *testing.T) {
	s := serve.New(serve.Config{Workers: 2, Budgets: evalBudgets()})
	defer s.Close()
	classes := []qos.Class{qos.ClassURLLC, qos.ClassEMBB, qos.ClassMMTC}
	for i, cl := range classes {
		resp := s.Do(serve.Request{ID: uint64(i), Class: cl, Problem: testProblem(t, 8), Seed: 8})
		if resp.Outcome != serve.OutcomeServed && resp.Outcome != serve.OutcomeDegraded {
			t.Fatalf("%v: outcome %v (err %v)", cl, resp.Outcome, resp.Err)
		}
		if resp.Alloc == nil || resp.Report == nil || resp.Deg == nil {
			t.Fatalf("%v: response missing allocation/report/trail: %+v", cl, resp)
		}
		if resp.ID != uint64(i) {
			t.Fatalf("%v: ID echo = %d, want %d", cl, resp.ID, i)
		}
	}
	st := s.Stats()
	if st.Admitted != 3 || st.Served+st.Degraded != 3 {
		t.Fatalf("stats = %+v, want 3 admitted and 3 served+degraded", st)
	}
	for _, cl := range classes {
		if st.Latency[cl].Count != 1 {
			t.Fatalf("latency[%v].Count = %d, want 1", cl, st.Latency[cl].Count)
		}
		if st.Latency[cl].P99 < st.Latency[cl].P50 {
			t.Fatalf("latency[%v]: p99 %v < p50 %v", cl, st.Latency[cl].P99, st.Latency[cl].P50)
		}
	}
}

// TestServerRejectsMalformedRequests: nil problems and unknown classes get
// typed errors, not panics or hangs.
func TestServerRejectsMalformedRequests(t *testing.T) {
	s := serve.New(serve.Config{Workers: 1, Budgets: evalBudgets()})
	defer s.Close()
	if resp := s.Do(serve.Request{Class: qos.ClassEMBB}); resp.Outcome != serve.OutcomeError {
		t.Fatalf("nil problem outcome = %v", resp.Outcome)
	}
	if resp := s.Do(serve.Request{Class: qos.Class(9), Problem: testProblem(t, 8)}); resp.Outcome != serve.OutcomeError {
		t.Fatalf("unknown class outcome = %v", resp.Outcome)
	}
	if st := s.Stats(); st.Errors != 2 || st.Admitted != 0 {
		t.Fatalf("stats = %+v, want 2 errors, 0 admitted", st)
	}
}

// TestServerRateLimitSheds pins the deterministic admission pattern: with
// rate 0.5 and burst 1, sequential submissions alternate admit/shed, and
// sheds resolve immediately with OutcomeShed.
func TestServerRateLimitSheds(t *testing.T) {
	s := serve.New(serve.Config{Workers: 1, AdmitRate: 0.5, AdmitBurst: 1, Budgets: evalBudgets()})
	defer s.Close()
	p := testProblem(t, 8)
	var shed, admitted int
	for i := 0; i < 8; i++ {
		resp := s.Do(serve.Request{ID: uint64(i), Class: qos.ClassEMBB, Problem: p, Seed: 8})
		if resp.Outcome == serve.OutcomeShed {
			shed++
			if resp.Status != guard.StatusCanceled || resp.Err == nil {
				t.Fatalf("shed response untyped: %+v", resp)
			}
		} else {
			admitted++
		}
	}
	if shed != 4 || admitted != 4 {
		t.Fatalf("shed %d / admitted %d, want 4/4", shed, admitted)
	}
	if st := s.Stats(); st.ShedRateLimit != 4 || st.Admitted != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestServerQueueFullSheds: with the single worker wedged on a blocking
// budget hook, a depth-1 queue admits one more request and sheds the rest —
// bounded memory, immediate typed refusals.
func TestServerQueueFullSheds(t *testing.T) {
	s := serve.New(serve.Config{Workers: 1, QueueDepth: 1, Budgets: evalBudgets()})
	defer s.Close()
	p := testProblem(t, 8)
	release := make(chan struct{})
	entered := make(chan struct{})
	var once bool
	blocker := s.Submit(serve.Request{ID: 100, Class: qos.ClassEMBB, Problem: p, Seed: 8,
		Budget: guard.Budget{Hook: func(iter, evals int) guard.Status {
			if !once {
				once = true
				close(entered)
				<-release
			}
			return guard.StatusCanceled
		}}})
	<-entered // the worker is now inside the wedged solve
	queued := s.Submit(serve.Request{ID: 101, Class: qos.ClassEMBB, Problem: p, Seed: 8})
	var sheds int
	for i := 0; i < 3; i++ {
		resp := s.Do(serve.Request{ID: uint64(102 + i), Class: qos.ClassEMBB, Problem: p, Seed: 8})
		if resp.Outcome == serve.OutcomeShed {
			sheds++
		}
	}
	if sheds != 3 {
		t.Fatalf("full queue shed %d of 3", sheds)
	}
	close(release)
	if resp := <-blocker; resp.Outcome != serve.OutcomeDegraded {
		t.Fatalf("wedged request outcome = %v, want degraded (canceled rungs, greedy answer)", resp.Outcome)
	}
	if resp := <-queued; resp.Alloc == nil {
		t.Fatalf("queued request lost its allocation: %+v", resp)
	}
	if st := s.Stats(); st.ShedQueueFull != 3 {
		t.Fatalf("stats = %+v, want 3 queue-full sheds", st)
	}
}

// TestServerDrainSheds: Close completes queued work, then refuses new
// submissions with typed draining sheds; double Close is safe.
func TestServerDrainSheds(t *testing.T) {
	s := serve.New(serve.Config{Workers: 1, Budgets: evalBudgets()})
	p := testProblem(t, 8)
	if resp := s.Do(serve.Request{Class: qos.ClassEMBB, Problem: p, Seed: 8}); resp.Alloc == nil {
		t.Fatalf("pre-drain solve failed: %+v", resp)
	}
	s.Close()
	s.Close()
	resp := s.Do(serve.Request{Class: qos.ClassEMBB, Problem: p, Seed: 8})
	if resp.Outcome != serve.OutcomeShed {
		t.Fatalf("post-drain outcome = %v, want shed", resp.Outcome)
	}
	if st := s.Stats(); st.ShedDraining != 1 {
		t.Fatalf("stats = %+v, want 1 draining shed", st)
	}
}

// TestServerClientCancelTyped: a dead client context yields OutcomeCanceled
// with the greedy answer still attached.
func TestServerClientCancelTyped(t *testing.T) {
	s := serve.New(serve.Config{Workers: 1, Budgets: evalBudgets()})
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	resp := s.Do(serve.Request{Class: qos.ClassURLLC, Problem: testProblem(t, 8), Seed: 8, Ctx: ctx})
	if resp.Outcome != serve.OutcomeCanceled || resp.Status != guard.StatusCanceled {
		t.Fatalf("canceled client: outcome %v status %v", resp.Outcome, resp.Status)
	}
	if resp.Alloc == nil {
		t.Fatal("canceled request lost its degraded allocation")
	}
}

// TestServerPanicRecovery: a panicking solver becomes a typed diverged
// response; the process survives and the next request is served normally.
func TestServerPanicRecovery(t *testing.T) {
	fired := false
	s := serve.New(serve.Config{Workers: 1, Budgets: evalBudgets(),
		Tamper: func(r *prob.Result) {
			if !fired {
				fired = true
				panic("injected solver crash")
			}
		}})
	defer s.Close()
	p := testProblem(t, 8)
	resp := s.Do(serve.Request{ID: 1, Class: qos.ClassEMBB, Problem: p, Seed: 8})
	if resp.Outcome != serve.OutcomeUncertified || resp.Status != guard.StatusDiverged {
		t.Fatalf("panicked solve: outcome %v status %v", resp.Outcome, resp.Status)
	}
	after := s.Do(serve.Request{ID: 2, Class: qos.ClassEMBB, Problem: p, Seed: 8})
	if after.Alloc == nil || (after.Outcome != serve.OutcomeServed && after.Outcome != serve.OutcomeDegraded) {
		t.Fatalf("server sick after recovered panic: %+v", after)
	}
	if st := s.Stats(); st.PanicsRecovered != 1 || st.Uncertified != 1 {
		t.Fatalf("stats = %+v, want 1 panic recovered / 1 uncertified", st)
	}
}

// TestServerBreakerGatesSickRung: with a tamper corrupting every certified
// backend result, the exact rung fails repeatedly, its breaker opens, and
// later requests show typed "rung gated" skips — while every response still
// carries an allocation.
func TestServerBreakerGatesSickRung(t *testing.T) {
	s := serve.New(serve.Config{Workers: 1, BreakerThreshold: 2, BreakerCooldown: 100,
		Budgets: evalBudgets(),
		Tamper: func(r *prob.Result) {
			for i := range r.X {
				r.X[i] = 2
			}
		}})
	defer s.Close()
	p := testProblem(t, 8)
	var gated bool
	for i := 0; i < 6; i++ {
		resp := s.Do(serve.Request{ID: uint64(i), Class: qos.ClassEMBB, Problem: p, Seed: 8})
		if resp.Alloc == nil {
			t.Fatalf("request %d lost its allocation: %+v", i, resp)
		}
		if resp.Outcome == serve.OutcomeServed {
			t.Fatalf("request %d served from a tampered certified rung", i)
		}
		for _, rr := range resp.Deg.Rungs {
			if rr.Rung == qos.RungExact && rr.Status == guard.StatusCanceled && rr.Attempts == 0 {
				gated = true
			}
		}
	}
	if !gated {
		t.Fatal("exact rung never gated after repeated certified failures")
	}
	st := s.Stats()
	if st.Breakers[qos.RungExact] != serve.BreakerOpen {
		t.Fatalf("exact breaker state = %v, want open (stats %+v)", st.Breakers[qos.RungExact], st)
	}
	if st.BreakerOpens == 0 {
		t.Fatal("no breaker trips recorded")
	}
}

// TestServerDeterministicAcrossWorkers is the service determinism contract:
// the same request set, submitted in the same order, produces bit-identical
// allocations whether one worker or eight drain the queues — the shared
// forms-only cache and seeded solves leave nothing for scheduling to steer.
func TestServerDeterministicAcrossWorkers(t *testing.T) {
	type key struct {
		seed uint64
		cl   qos.Class
	}
	problems := map[uint64]*qos.Problem{}
	for _, seed := range []uint64{3, 8, 11} {
		problems[seed] = testProblem(t, seed)
	}
	run := func(workers int) map[key]*qos.Allocation {
		s := serve.New(serve.Config{Workers: workers, Budgets: evalBudgets()})
		defer s.Close()
		var chans []<-chan serve.Response
		var keys []key
		for _, seed := range []uint64{3, 8, 11} {
			for _, cl := range []qos.Class{qos.ClassURLLC, qos.ClassEMBB, qos.ClassMMTC} {
				keys = append(keys, key{seed, cl})
				chans = append(chans, s.Submit(serve.Request{Class: cl, Problem: problems[seed], Seed: seed}))
			}
		}
		out := make(map[key]*qos.Allocation, len(keys))
		for i, ch := range chans {
			resp := <-ch
			if resp.Alloc == nil {
				t.Fatalf("workers=%d %+v: no allocation (%v, err %v)", workers, keys[i], resp.Outcome, resp.Err)
			}
			out[keys[i]] = resp.Alloc
		}
		return out
	}
	one := run(1)
	eight := run(8)
	for k, a := range one {
		b := eight[k]
		if !reflect.DeepEqual(a.UserOf, b.UserOf) || !reflect.DeepEqual(a.PowerW, b.PowerW) {
			t.Fatalf("%+v: workers=1 %v/%v vs workers=8 %v/%v", k, a.UserOf, a.PowerW, b.UserOf, b.PowerW)
		}
	}
}

// TestServerVerdictIsLadderStatus: over the determinism workload at 1 and 8
// workers — once under the roomy eval budgets and once under a one-eval
// cap that stops every budgeted rung early — every live-context response
// is served exactly when the exact rung was accepted, and its Status is the
// ladder's own verdict, Deg.Status().
func TestServerVerdictIsLadderStatus(t *testing.T) {
	outcomes := map[serve.Outcome]int{}
	for _, workers := range []int{1, 8} {
		for _, b := range []guard.Budget{{}, {MaxEvals: 1}} {
			s := serve.New(serve.Config{Workers: workers, Budgets: evalBudgets()})
			var chans []<-chan serve.Response
			for _, seed := range []uint64{3, 8, 11} {
				p := testProblem(t, seed)
				for _, cl := range []qos.Class{qos.ClassURLLC, qos.ClassEMBB, qos.ClassMMTC} {
					chans = append(chans, s.Submit(serve.Request{ID: seed, Class: cl, Problem: p, Seed: seed, Budget: b}))
				}
			}
			for _, ch := range chans {
				resp := <-ch
				if resp.Deg == nil {
					t.Fatalf("workers=%d budget %+v: request %d ran no ladder: %+v", workers, b, resp.ID, resp)
				}
				if served, exact := resp.Outcome == serve.OutcomeServed, resp.Rung == qos.RungExact; served != exact {
					t.Errorf("workers=%d budget %+v: request %d outcome %v on rung %q", workers, b, resp.ID, resp.Outcome, resp.Rung)
				}
				if resp.Status != resp.Deg.Status() {
					t.Errorf("workers=%d budget %+v: request %d status %v, ladder verdict %v", workers, b, resp.ID, resp.Status, resp.Deg.Status())
				}
				outcomes[resp.Outcome]++
			}
			s.Close()
		}
	}
	// Both sides of the equivalence must actually be exercised.
	if outcomes[serve.OutcomeServed] == 0 || outcomes[serve.OutcomeDegraded] == 0 {
		t.Fatalf("outcomes %v: want both served and degraded responses", outcomes)
	}
}

// TestServerBatchMatchesIndividual: mMTC coalescing shares deadline budget,
// never answers — each batched member's allocation is bit-identical to the
// same request solved alone.
func TestServerBatchMatchesIndividual(t *testing.T) {
	p := testProblem(t, 8)
	solo := serve.New(serve.Config{Workers: 1, Budgets: evalBudgets()})
	want := map[uint64]*qos.Allocation{}
	for seed := uint64(1); seed <= 6; seed++ {
		resp := solo.Do(serve.Request{Class: qos.ClassMMTC, Problem: p, Seed: seed})
		if resp.Alloc == nil {
			t.Fatalf("solo seed %d: %+v", seed, resp)
		}
		want[seed] = resp.Alloc
	}
	solo.Close()

	// One worker, batch size 4: queue six mMTC jobs before the worker can
	// pick any up (they were submitted while it still slept on an empty
	// queue — admission is instant), so coalescing actually occurs.
	batched := serve.New(serve.Config{Workers: 1, BatchSize: 4, Budgets: evalBudgets()})
	var chans []<-chan serve.Response
	for seed := uint64(1); seed <= 6; seed++ {
		chans = append(chans, batched.Submit(serve.Request{ID: seed, Class: qos.ClassMMTC, Problem: p, Seed: seed}))
	}
	for i, ch := range chans {
		seed := uint64(i + 1)
		resp := <-ch
		if resp.Alloc == nil {
			t.Fatalf("batched seed %d: %+v (err %v)", seed, resp.Outcome, resp.Err)
		}
		if !reflect.DeepEqual(resp.Alloc, want[seed]) {
			t.Fatalf("batched seed %d diverged from solo solve:\n%v\nvs\n%v", seed, resp.Alloc, want[seed])
		}
	}
	batched.Close()
}

// TestServerBudgetExhaustionDegradesTyped: a class budget whose hook trips
// before the first iteration (the deterministic stand-in for a spent
// deadline) degrades every budgeted rung typed and still answers via
// greedy.
func TestServerBudgetExhaustionDegradesTyped(t *testing.T) {
	spent := faultinject.Plan{CancelAtIter: 0}
	s := serve.New(serve.Config{Workers: 1, Budgets: map[qos.Class]guard.Budget{
		qos.ClassURLLC: spent.Budget(),
		qos.ClassEMBB:  {MaxEvals: 1_000_000},
		qos.ClassMMTC:  {MaxEvals: 1_000_000},
	}})
	defer s.Close()
	resp := s.Do(serve.Request{Class: qos.ClassURLLC, Problem: testProblem(t, 8), Seed: 8})
	if resp.Alloc == nil {
		t.Fatalf("budget-starved URLLC request got no allocation: %+v", resp)
	}
	if resp.Outcome != serve.OutcomeDegraded || resp.Rung != qos.RungGreedy {
		t.Fatalf("spent budget: outcome %v rung %v, want degraded/greedy\n%s", resp.Outcome, resp.Rung, resp.Deg)
	}
	for _, rr := range resp.Deg.Rungs {
		if rr.Rung != qos.RungGreedy && rr.Status != guard.StatusCanceled {
			t.Fatalf("starved rung %s status %v, want canceled", rr.Rung, rr.Status)
		}
	}
}

// TestHistogramQuantileBounds sanity-checks the log₂ histogram against
// known samples.
func TestHistogramQuantileBounds(t *testing.T) {
	var h serve.Histogram
	if h.Quantile(0.99) != 0 {
		t.Fatal("empty histogram quantile != 0")
	}
	for i := 0; i < 99; i++ {
		h.Observe(1 * time.Millisecond)
	}
	h.Observe(500 * time.Millisecond)
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	p50 := h.Quantile(0.5)
	if p50 < 1*time.Millisecond || p50 > 2*time.Millisecond {
		t.Fatalf("p50 = %v, want within a factor of 2 of 1ms", p50)
	}
	p995 := h.Quantile(0.995)
	if p995 < 500*time.Millisecond || p995 > time.Second {
		t.Fatalf("p99.5 = %v, want within a factor of 2 of 500ms", p995)
	}
	if h.Quantile(0) == 0 || h.Quantile(1) < p995 {
		t.Fatalf("quantile clamping broken: q0=%v q1=%v", h.Quantile(0), h.Quantile(1))
	}
}

// TestStatsString smoke-checks that Stats is printable (used by qosd's JSON
// output via reflection-free fields).
func TestStatsSnapshotIndependent(t *testing.T) {
	s := serve.New(serve.Config{Workers: 1, Budgets: evalBudgets()})
	defer s.Close()
	before := s.Stats()
	_ = s.Do(serve.Request{Class: qos.ClassEMBB, Problem: testProblem(t, 8), Seed: 8})
	after := s.Stats()
	if before.Admitted != 0 || after.Admitted != 1 {
		t.Fatalf("snapshots not independent: before %+v after %+v", before, after)
	}
	// Snapshots are plain values: mutating one does not touch the server.
	after.Admitted = 99
	if s.Stats().Admitted != 1 {
		t.Fatal("snapshot aliased live counters")
	}
	_ = fmt.Sprintf("%+v", after)
}
