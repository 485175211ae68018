// Package serve is the overload-safe QoS allocation service behind cmd/qosd:
// a long-running worker pool that accepts streaming RRA requests, classifies
// them by 5G service class, and drives them through the qos degradation
// ladder under per-class budgets — engineered to degrade instead of dying.
//
// The request path is admission → budget → ladder → certificate → response:
//
//   - Admission: a deterministic token bucket on logical ticks plus bounded
//     per-class queues. Overload produces typed OutcomeShed responses, never
//     unbounded memory or blocked clients.
//   - Budget: each class carries a guard.Budget (deadline + eval cap);
//     mMTC requests are coalesced into batches that share one deadline.
//   - Ladder: qos.SolveRobust with per-rung circuit breakers wired into its
//     RungGate — a rung that keeps failing is gated out (typed "skipped"
//     reports) until a half-open probe recovers it, so a sick backend stops
//     burning every request's deadline.
//   - Certificate: the ladder's a-posteriori certifier rejects corrupted
//     rungs; a worker panic is recovered into a typed diverged response.
//     No uncertified allocation is ever returned.
//   - Response: a typed Outcome from the same taxonomy (and exit codes) as
//     cmd/qossolver.
//
// Determinism: the shared solve cache memoizes compiled forms only
// (prob.Cache), so one request's solution never seeds another's
// branch-and-bound — an identical request with an identical seed yields a
// bit-identical allocation at any worker count and under any arrival
// interleaving. Admission decisions are equally replayable for a
// fixed submission order. The package intentionally sits outside the
// rcrlint nondet surface: wall-clock latency measurement and goroutines are
// service concerns; everything that reaches a solver stays seeded.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/guard"
	"repro/internal/par"
	"repro/internal/prob"
	"repro/internal/pso"
	"repro/internal/qos"
)

// Request is one allocation job.
type Request struct {
	// ID is an opaque caller tag echoed in the Response.
	ID uint64
	// Class routes the request: URLLC ahead of eMBB ahead of mMTC, with
	// mMTC coalesced into batches. Unknown classes are rejected typed.
	Class qos.Class
	// Problem is the RRA instance to solve.
	Problem *qos.Problem
	// Seed drives every random draw of the solve (the PSO rung's perturbed
	// restarts). Identical (Problem, Seed) → bit-identical allocation.
	Seed uint64
	// Ctx, when non-nil, lets the client cancel or deadline the request;
	// cancellation surfaces as a typed OutcomeCanceled response.
	Ctx context.Context
	// Budget, when any field is set, overrides the class's default budget.
	Budget guard.Budget
}

// Response is the typed result of one Request.
type Response struct {
	ID      uint64
	Outcome Outcome
	// Status is the typed cause behind the outcome: the ladder's verdict
	// Deg.Status() (Converged for served), or the client's cause when its
	// context died mid-solve.
	Status guard.Status
	// Alloc/Report carry the allocation when one was produced — degraded
	// outcomes still carry the best allocation found.
	Alloc  *qos.Allocation
	Report *qos.Report
	// Rung is the accepted ladder rung ("" when no ladder ran).
	Rung qos.Rung
	// Deg is the full ladder audit trail (nil when no ladder ran).
	Deg *qos.Degradation
	// Err carries hard errors (OutcomeError) only.
	Err error
}

// Config configures a Server. The zero value serves with sane defaults.
type Config struct {
	// Workers is the solver pool size, default par.Workers() (RCR_WORKERS).
	Workers int
	// QueueDepth bounds each class queue, default 64. A full queue sheds.
	QueueDepth int
	// BatchSize caps mMTC coalescing, default 8: a worker that picks up an
	// mMTC job drains up to BatchSize-1 more and runs them under one shared
	// deadline.
	BatchSize int
	// AdmitRate/AdmitBurst configure the token bucket: AdmitRate tokens per
	// submission tick, capacity AdmitBurst. AdmitRate <= 0 disables rate
	// admission (queues still bound memory).
	AdmitRate  float64
	AdmitBurst float64
	// BreakerThreshold trips a rung's breaker after that many consecutive
	// rung failures (default 3); BreakerCooldown is the refused-call count
	// before a half-open probe (default 8).
	BreakerThreshold int
	BreakerCooldown  int
	// Budgets overrides the per-class default budgets (DefaultBudgets).
	Budgets map[qos.Class]guard.Budget
	// PSO configures the ladder's metaheuristic rung (default: small swarm
	// sized for interactive deadlines).
	PSO pso.Options
	// CacheDir, when set, makes the solver cache persistent: New loads the
	// snapshot under it (every loaded entry crosses the prob.Cache trust
	// boundary — see DESIGN.md §15), the server re-snapshots every
	// SnapshotEvery logical ticks, and Close writes a final snapshot after
	// the drain. Empty disables persistence.
	CacheDir string
	// SnapshotEvery is the periodic snapshot cadence in logical submission
	// ticks (default 256 when CacheDir is set; negative disables periodic
	// snapshots, leaving only the one at Close).
	SnapshotEvery int
	// Tamper is the chaos seam forwarded into the ladder's certified rungs
	// (see qos.RobustOptions.Tamper). Production leaves it nil.
	Tamper func(*prob.Result)
}

// DefaultBudgets returns the per-class budget defaults (documented in
// DESIGN.md §14): URLLC gets a tight deadline and a small eval cap so a
// blown budget degrades fast; eMBB gets room for the exact rung; mMTC
// budgets apply per coalesced batch.
func DefaultBudgets() map[qos.Class]guard.Budget {
	return map[qos.Class]guard.Budget{
		qos.ClassURLLC: {Deadline: 10 * time.Millisecond, MaxEvals: 50_000},
		qos.ClassEMBB:  {Deadline: 100 * time.Millisecond, MaxEvals: 500_000},
		qos.ClassMMTC:  {Deadline: 250 * time.Millisecond, MaxEvals: 1_000_000},
	}
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = par.Workers()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 8
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 8
	}
	if c.PSO.Swarm == 0 && c.PSO.MaxIter == 0 {
		c.PSO = pso.Options{Swarm: 15, MaxIter: 60}
	}
	if c.CacheDir != "" && c.SnapshotEvery == 0 {
		c.SnapshotEvery = 256
	}
	merged := DefaultBudgets()
	for cl, b := range c.Budgets {
		merged[cl] = b
	}
	c.Budgets = merged
	return c
}

// job is one queued request plus its reply channel.
type job struct {
	req  Request
	done chan Response
}

// Server is the allocation service. Create with New, submit with Do or
// Submit, stop with Close (graceful drain: queued work finishes, new work
// sheds typed).
type Server struct {
	cfg      Config
	queues   map[qos.Class]chan job
	bucket   *TokenBucket
	breakers map[qos.Rung]*Breaker
	cache    *prob.Cache
	stats    counters

	mu       sync.Mutex // guards draining and queue sends vs Close
	draining bool
	ticks    atomic.Uint64
	wg       sync.WaitGroup

	// Persistence (CacheDir mode): loadStats records what New restored,
	// snapshotting single-flights the periodic background snapshot, snapWG
	// tracks it so Close never races a writer, and finalSnap makes the
	// shutdown snapshot exactly-once across repeated Close calls.
	loadStats    prob.LoadStats
	snapshotting atomic.Bool
	snapWG       sync.WaitGroup
	finalSnap    sync.Once
}

// New starts a server with cfg's worker pool running.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg: cfg,
		queues: map[qos.Class]chan job{
			qos.ClassURLLC: make(chan job, cfg.QueueDepth),
			qos.ClassEMBB:  make(chan job, cfg.QueueDepth),
			qos.ClassMMTC:  make(chan job, cfg.QueueDepth),
		},
		breakers: map[qos.Rung]*Breaker{
			qos.RungExact:   NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
			qos.RungRelaxed: NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
			qos.RungPSO:     NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		},
		// Compiled lowerings are shared across requests; solutions are
		// not, so arrival order cannot steer branch and bound between tied
		// optima.
		cache: prob.NewCache(),
	}
	if cfg.AdmitRate > 0 {
		s.bucket = NewTokenBucket(cfg.AdmitRate, cfg.AdmitBurst)
	}
	if cfg.CacheDir != "" {
		// Warm restart: restore the previous process's compiled forms
		// before any worker starts; corrupt entries are skipped and surface
		// in Stats.CacheCorrupt.
		ls, err := s.cache.Load(cfg.CacheDir)
		if err != nil {
			s.stats.persistErrors.Add(1)
		}
		s.loadStats = ls
	}
	s.wg.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go s.worker()
	}
	return s
}

// shed builds a typed admission refusal.
func shed(id uint64, detail string) Response {
	return Response{ID: id, Outcome: OutcomeShed, Status: guard.StatusCanceled,
		Err: guard.Err(guard.StatusCanceled, "shed: %s", detail)}
}

// Submit enqueues a request and returns the channel its Response will
// arrive on (buffered; the server never blocks on a slow reader). Requests
// refused by admission control resolve immediately with OutcomeShed;
// malformed requests with OutcomeError. Submit never blocks on a full
// queue — bounded queues shed, they do not backpressure into the client.
func (s *Server) Submit(req Request) <-chan Response {
	done := make(chan Response, 1)
	if req.Problem == nil {
		s.stats.errors.Add(1)
		done <- Response{ID: req.ID, Outcome: OutcomeError,
			Err: fmt.Errorf("serve: nil problem")}
		return done
	}
	q, ok := s.queues[req.Class]
	if !ok {
		s.stats.errors.Add(1)
		done <- Response{ID: req.ID, Outcome: OutcomeError,
			Err: fmt.Errorf("serve: unknown class %v", req.Class)}
		return done
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.stats.shedDraining.Add(1)
		done <- shed(req.ID, "draining")
		return done
	}
	tick := s.ticks.Add(1)
	if s.cfg.CacheDir != "" && s.cfg.SnapshotEvery > 0 && tick%uint64(s.cfg.SnapshotEvery) == 0 {
		s.snapshotAsync()
	}
	if s.bucket != nil && !s.bucket.Admit(tick) {
		s.stats.shedRateLimit.Add(1)
		done <- shed(req.ID, "rate limit")
		return done
	}
	select {
	case q <- job{req: req, done: done}:
		s.stats.admitted.Add(1)
	default:
		s.stats.shedQueueFull.Add(1)
		done <- shed(req.ID, fmt.Sprintf("%v queue full", req.Class))
	}
	return done
}

// Do submits and waits for the response.
func (s *Server) Do(req Request) Response {
	return <-s.Submit(req)
}

// Close drains the server: no new admissions (typed sheds), queued work
// completes, workers exit. In CacheDir mode, one final snapshot is written
// after the drain — exactly once, no matter how many times Close is called,
// and never concurrently with a periodic snapshot. Safe to call more than
// once.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		//lint:ignore nondet close order over the class-queue map is irrelevant: each channel closes exactly once and workers drain every queue to completion regardless of order
		for _, q := range s.queues {
			close(q)
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
	s.snapWG.Wait()
	if s.cfg.CacheDir != "" {
		s.finalSnap.Do(s.snapshot)
	}
}

// snapshotAsync starts one background snapshot unless one is already in
// flight: snapshots are cheap but not free, and a burst of submissions
// landing on the cadence boundary must not stack writers on one directory.
func (s *Server) snapshotAsync() {
	if !s.snapshotting.CompareAndSwap(false, true) {
		return
	}
	s.snapWG.Add(1)
	//lint:ignore nondet background snapshot is pure I/O off the solve path: bytes are sorted inside Snapshot, no solver state is read unlocked, and Close awaits snapWG so the write never races shutdown
	go func() {
		defer s.snapWG.Done()
		defer s.snapshotting.Store(false)
		s.snapshot()
	}()
}

// snapshot writes the cache to CacheDir once, counting the outcome.
func (s *Server) snapshot() {
	if _, err := s.cache.Snapshot(s.cfg.CacheDir); err != nil {
		s.stats.persistErrors.Add(1)
		return
	}
	s.stats.snapshots.Add(1)
}

// Stats snapshots the server's counters.
func (s *Server) Stats() Stats {
	cs := s.cache.Stats()
	st := Stats{
		Admitted:           s.stats.admitted.Load(),
		ShedRateLimit:      s.stats.shedRateLimit.Load(),
		ShedQueueFull:      s.stats.shedQueueFull.Load(),
		ShedDraining:       s.stats.shedDraining.Load(),
		Served:             s.stats.served.Load(),
		Degraded:           s.stats.degraded.Load(),
		DeadlineMissed:     s.stats.deadlineMissed.Load(),
		Infeasible:         s.stats.infeasible.Load(),
		Canceled:           s.stats.canceled.Load(),
		Uncertified:        s.stats.uncertified.Load(),
		Errors:             s.stats.errors.Load(),
		PanicsRecovered:    s.stats.panics.Load(),
		CacheHits:          int64(cs.Hits),
		CacheMisses:        int64(cs.Misses),
		CacheLoaded:        int64(s.loadStats.Entries),
		CacheCorrupt:       int64(s.loadStats.Corrupt),
		CacheSnapshots:     s.stats.snapshots.Load(),
		CachePersistErrors: s.stats.persistErrors.Load(),
		Breakers:           make(map[qos.Rung]BreakerState, len(s.breakers)),
		Latency:            make(map[qos.Class]ClassLatency),
	}
	for r, b := range s.breakers {
		st.Breakers[r] = b.State()
		st.BreakerOpens += b.Opens()
	}
	for _, cl := range []qos.Class{qos.ClassEMBB, qos.ClassURLLC, qos.ClassMMTC} {
		if h := s.stats.hist(cl); h.Count() > 0 {
			st.Latency[cl] = ClassLatency{Count: h.Count(), P50: h.Quantile(0.5), P99: h.Quantile(0.99)}
		}
	}
	return st
}

// worker is one pool goroutine: URLLC strictly first, then a fair pick
// among the remaining classes; an mMTC pick drains a coalesced batch.
func (s *Server) worker() {
	defer s.wg.Done()
	urllc, embb, mmtc := s.queues[qos.ClassURLLC], s.queues[qos.ClassEMBB], s.queues[qos.ClassMMTC]
	for urllc != nil || embb != nil || mmtc != nil {
		// Priority pass: never start lower-class work while URLLC waits.
		if urllc != nil {
			select {
			case j, ok := <-urllc:
				if !ok {
					urllc = nil
					continue
				}
				s.run(j)
				continue
			default:
			}
		}
		// Blocking pass over whatever is still open (a receive from a nil
		// channel blocks forever, which is exactly the drop-out we want for
		// closed queues).
		select {
		case j, ok := <-urllc:
			if !ok {
				urllc = nil
				continue
			}
			s.run(j)
		case j, ok := <-embb:
			if !ok {
				embb = nil
				continue
			}
			s.run(j)
		case j, ok := <-mmtc:
			if !ok {
				mmtc = nil
				continue
			}
			s.runBatch(j, mmtc)
		}
	}
}

// run solves one job and replies.
func (s *Server) run(j job) {
	//lint:ignore nondet service latency measurement: the clock feeds only the stats histograms, never a solver — allocations stay functions of (problem, seed)
	start := time.Now()
	resp := s.solve(j.req, s.budgetFor(j.req))
	s.record(j.req.Class, resp, time.Since(start))
	j.done <- resp
}

// runBatch coalesces up to BatchSize mMTC jobs under one shared deadline:
// the batch's wall budget is the class deadline, and each member solves
// with whatever remains of it. Members that find the deadline already spent
// get a typed deadline response without running a solver. Per-member eval
// caps still apply individually — batching shares time, not evals, so a
// member's *allocation* is independent of who shared its batch.
func (s *Server) runBatch(first job, q chan job) {
	batch := []job{first}
	for len(batch) < s.cfg.BatchSize {
		select {
		case j, ok := <-q:
			if !ok {
				// Queue closed mid-drain: solve what we have; the worker
				// loop will observe the close on its next receive.
				goto solve
			}
			batch = append(batch, j)
		default:
			goto solve
		}
	}
solve:
	deadline := s.cfg.Budgets[qos.ClassMMTC].Deadline
	//lint:ignore nondet the shared batch deadline is wall-clock by contract (guard.Budget.Deadline); it bounds solve *time*, while per-member eval caps keep each *allocation* batch-independent and seeded
	start := time.Now()
	for _, j := range batch {
		b := s.budgetFor(j.req)
		if deadline > 0 && j.req.Budget.Deadline == 0 {
			rem := deadline - time.Since(start)
			if rem <= 0 {
				resp := Response{ID: j.req.ID, Outcome: OutcomeDeadline, Status: guard.StatusTimeout,
					Err: guard.Err(guard.StatusTimeout, "mMTC batch deadline spent")}
				s.record(j.req.Class, resp, time.Since(start))
				j.done <- resp
				continue
			}
			b.Deadline = rem
		}
		//lint:ignore nondet per-member latency measurement for the stats histograms; see run
		t0 := time.Now()
		resp := s.solve(j.req, b)
		s.record(j.req.Class, resp, time.Since(t0))
		j.done <- resp
	}
}

// budgetFor resolves a request's effective budget: the explicit request
// budget when any field is set, else the class default; the client context
// rides along in either case.
func (s *Server) budgetFor(req Request) guard.Budget {
	b := req.Budget
	if b.Ctx == nil && b.Deadline == 0 && b.MaxEvals == 0 && b.Hook == nil {
		b = s.cfg.Budgets[req.Class]
	}
	if req.Ctx != nil {
		b.Ctx = req.Ctx
	}
	return b
}

// solve runs the ladder once for one request under its resolved budget,
// with panic recovery (a crashed solve becomes a typed diverged response —
// the process never dies) and breaker gating/recording. The ladder always
// answers, so there is nothing to retry: its verdict is Deg.Status().
func (s *Server) solve(req Request, budget guard.Budget) (resp Response) {
	defer func() {
		if r := recover(); r != nil {
			s.stats.panics.Add(1)
			resp = Response{ID: req.ID, Outcome: OutcomeForStatus(guard.StatusDiverged),
				Status: guard.StatusDiverged,
				Err:    guard.Err(guard.StatusDiverged, "solver panic recovered: %v", r)}
		}
	}()
	gate := func(r qos.Rung) bool {
		br := s.breakers[r]
		return br == nil || br.Allow()
	}
	alloc, rep, deg, err := req.Problem.SolveRobust(qos.RobustOptions{
		Budget:   budget,
		Seed:     req.Seed,
		Cache:    s.cache,
		RungGate: gate,
		Tamper:   s.cfg.Tamper,
		PSO:      s.cfg.PSO,
	})
	s.recordBreakers(deg)
	if err != nil {
		if cause, ok := guard.AsStatus(err); ok {
			return Response{ID: req.ID, Outcome: OutcomeForStatus(cause), Status: cause, Err: err}
		}
		return Response{ID: req.ID, Outcome: OutcomeError, Err: err}
	}
	resp = Response{ID: req.ID, Status: deg.Status(), Alloc: alloc, Report: rep, Rung: deg.Final, Deg: deg}
	// A request whose client context died mid-solve is classified by the
	// client's cause, not by how far the ladder limped: the (greedy) answer
	// still rides along, but the outcome says nobody is waiting for it.
	if req.Ctx != nil && req.Ctx.Err() != nil {
		cause := guard.StatusCanceled
		if errors.Is(req.Ctx.Err(), context.DeadlineExceeded) {
			cause = guard.StatusTimeout
		}
		resp.Status = cause
		resp.Outcome = OutcomeForStatus(cause)
		resp.Err = guard.Err(cause, "client context: %v", req.Ctx.Err())
		return resp
	}
	// The exact rung is accepted only with every QoS contract met, so an
	// undegraded ladder is a served answer.
	resp.Outcome = OutcomeServed
	if deg.Degraded() {
		resp.Outcome = OutcomeDegraded
	}
	return resp
}

// recordBreakers feeds a ladder trail back into the per-rung breakers:
// rungs the gate skipped are not attempts and record nothing; a rung whose
// solver ran records success unless its typed status is a failure (a rung
// rejected purely for QoS shortfall still proved its backend healthy).
func (s *Server) recordBreakers(deg *qos.Degradation) {
	if deg == nil {
		return
	}
	for _, rr := range deg.Rungs {
		br := s.breakers[rr.Rung]
		if br == nil || rr.Attempts == 0 {
			continue // greedy, or a skipped (gated / budget-spent) rung
		}
		br.Record(!rr.Status.Failure())
	}
}

// record folds one response into the counters.
func (s *Server) record(cl qos.Class, resp Response, lat time.Duration) {
	s.stats.hist(cl).Observe(lat)
	switch resp.Outcome {
	case OutcomeServed:
		s.stats.served.Add(1)
	case OutcomeDegraded:
		s.stats.degraded.Add(1)
	case OutcomeInfeasible:
		s.stats.infeasible.Add(1)
	case OutcomeCanceled:
		s.stats.canceled.Add(1)
	case OutcomeUncertified:
		s.stats.uncertified.Add(1)
	case OutcomeError:
		s.stats.errors.Add(1)
	case OutcomeExhausted, OutcomeDeadline:
		s.stats.degraded.Add(1)
	}
	if resp.Status == guard.StatusTimeout {
		s.stats.deadlineMissed.Add(1)
		return
	}
	// A degraded answer whose ladder lost a rung to the wall clock is a
	// deadline miss too — the fallback rescued the response, not the budget.
	if resp.Deg != nil {
		for _, rr := range resp.Deg.Rungs {
			if rr.Status == guard.StatusTimeout {
				s.stats.deadlineMissed.Add(1)
				return
			}
		}
	}
}
