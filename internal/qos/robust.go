package qos

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/guard"
	"repro/internal/lp"
	"repro/internal/minlp"
	"repro/internal/prob"
	"repro/internal/pso"
	"repro/internal/rng"
)

// This file implements the degradation ladder for the RRA problem: a caller
// that must produce *an* allocation under a budget tries the exact solver
// first and falls back rung by rung — exact BnB, LP relaxation with
// deterministic rounding, PSO with perturbed restarts, and finally the
// greedy heuristic, which always answers. Every rung's outcome is recorded
// in a Degradation report so operators can see not just the allocation but
// how much solver quality was given up to meet the deadline.

// RelaxedResult reports the LP-relaxation rung.
type RelaxedResult struct {
	// Objective is the LP-relaxation optimum (an upper bound on the best
	// discretized total rate, in bps, sign-corrected for maximization).
	Objective float64
	// Guard is the LP's typed termination cause.
	Guard guard.Status
	// Cert is the a-posteriori certificate verdict of the underlying solve
	// ("pass", "none", or "fail(...)"; see internal/cert). Empty when the
	// solve never produced a result to certify.
	Cert string
}

// SolveRelaxed solves the LP relaxation of the column-selection MILP (the
// integrality constraints dropped — the same move the paper's relaxed
// verifiers make, MILP → LP) and rounds deterministically: each block takes
// its largest-weight column, then per-user power budgets are repaired by
// dropping the lowest-rate assignments. The result is feasible for the box
// and power constraints by construction; QoS minima may be violated (the
// caller checks the Report).
func (p *Problem) SolveRelaxed(b guard.Budget) (*Allocation, *RelaxedResult, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	return p.columns().solveRelaxed(b, nil, nil)
}

// solveRelaxed runs the relaxed rung on the column model. The Eq. 7 move is
// the explicit prob.RelaxIntegrality pass; its Recovery is deliberately
// dropped — its nearest-integer rounding is not what this rung wants, since
// the deterministic largest-weight rounding plus power repair below needs
// the fractional LP weights.
func (c *Columns) solveRelaxed(b guard.Budget, cache *prob.Cache, tamper func(*prob.Result)) (*Allocation, *RelaxedResult, error) {
	relaxed, _, err := prob.RelaxIntegrality(c.IR)
	if err != nil {
		return nil, nil, fmt.Errorf("qos: relaxed solve: %w", err)
	}
	res, err := prob.Solve(relaxed, prob.Options{Budget: b, Cache: cache, Tamper: tamper})
	if err != nil {
		st := guard.StatusDiverged
		if s, ok := guard.AsStatus(err); ok {
			st = s
		}
		return nil, &RelaxedResult{Guard: st}, fmt.Errorf("qos: relaxed solve: %w", err)
	}
	if res.LP == nil || res.LP.Status != lp.StatusOptimal {
		return nil, &RelaxedResult{Guard: res.Status, Cert: res.Cert.String()},
			fmt.Errorf("qos: relaxed solve: LP %v", res.LP.Status)
	}
	// res.Objective is the IR's maximize-sense value at the LP optimum —
	// bit-identical to the historical -sol.Objective sign correction.
	rr := &RelaxedResult{Objective: res.Objective, Guard: res.Status, Cert: res.Cert.String()}

	// Rounding: per block, the column with the largest fractional weight
	// (ties broken by column order — deterministic).
	p := c.p
	nRB := p.Inst.Params.NumRBs
	bestCol := make([]int, nRB)
	bestW := make([]float64, nRB)
	for i := range bestCol {
		bestCol[i] = -1
	}
	for i, col := range c.cols {
		if w := res.X[i]; w > bestW[col.rb]+1e-12 {
			bestW[col.rb] = w
			bestCol[col.rb] = i
		}
	}
	alloc := NewAllocation(nRB)
	usedPower := make([]float64, len(p.Users))
	type pick struct {
		rb   int
		rate float64
	}
	perUser := make([][]pick, len(p.Users))
	for rb, i := range bestCol {
		if i < 0 || bestW[rb] < 1e-6 {
			continue
		}
		col := c.cols[i]
		alloc.UserOf[rb] = col.u
		alloc.PowerW[rb] = p.Levels[col.level]
		usedPower[col.u] += p.Levels[col.level]
		perUser[col.u] = append(perUser[col.u], pick{rb, col.rate})
	}
	// Repair: rounding can overshoot a user's power budget; shed that
	// user's lowest-rate blocks until feasible.
	for u := range p.Users {
		if usedPower[u] <= p.PowerBudgetW {
			continue
		}
		ps := perUser[u]
		sort.Slice(ps, func(i, j int) bool {
			if ps[i].rate < ps[j].rate {
				return true
			}
			if ps[j].rate < ps[i].rate {
				return false
			}
			return ps[i].rb < ps[j].rb
		})
		for _, pk := range ps {
			if usedPower[u] <= p.PowerBudgetW {
				break
			}
			usedPower[u] -= alloc.PowerW[pk.rb]
			alloc.UserOf[pk.rb] = -1
			alloc.PowerW[pk.rb] = 0
		}
	}
	return alloc, rr, nil
}

// Rung names the ladder stages.
type Rung string

// Ladder rungs, in descending solver-quality order.
const (
	RungExact   Rung = "exact"
	RungRelaxed Rung = "relaxed"
	RungPSO     Rung = "pso"
	RungGreedy  Rung = "greedy"
)

// RungReport records one ladder attempt.
type RungReport struct {
	Rung     Rung
	Status   guard.Status
	Accepted bool
	// Attempts is the number of solver runs this rung made (PSO restarts).
	Attempts int
	// TotalRateBps / AllQoSMet score the rung's allocation (zero values
	// when the rung produced none).
	TotalRateBps float64
	AllQoSMet    bool
	// Cert is the a-posteriori certificate verdict of the rung's underlying
	// prob solve ("pass", "none", "fail(...)"); empty for the heuristic
	// rungs (PSO, greedy), which run no certified solver.
	Cert   string
	Detail string
}

// Degradation is the ladder's audit trail: every rung tried, in order, and
// which one's allocation was accepted.
type Degradation struct {
	Rungs []RungReport
	Final Rung
}

// Degraded reports whether service degraded below the exact solver.
func (d *Degradation) Degraded() bool { return d.Final != RungExact }

// Status is the ladder's verdict: Converged when the exact rung was
// accepted (it is only with every QoS contract met), otherwise the accepted
// rung's typed cause; Diverged for an empty trail.
func (d *Degradation) Status() guard.Status {
	if len(d.Rungs) == 0 {
		return guard.StatusDiverged
	}
	if !d.Degraded() {
		return guard.StatusConverged
	}
	return d.Rungs[len(d.Rungs)-1].Status
}

// String renders the report, one rung per line.
func (d *Degradation) String() string {
	var sb strings.Builder
	for _, r := range d.Rungs {
		mark := "✗"
		if r.Accepted {
			mark = "✓"
		}
		fmt.Fprintf(&sb, "%s %-8s status=%-16s", mark, r.Rung, r.Status)
		if r.Cert != "" {
			fmt.Fprintf(&sb, " cert=%s", r.Cert)
		}
		if r.Attempts > 1 {
			fmt.Fprintf(&sb, " attempts=%d", r.Attempts)
		}
		if r.Accepted || r.TotalRateBps > 0 {
			fmt.Fprintf(&sb, " rate=%.2f Mbps qos_met=%v", r.TotalRateBps/1e6, r.AllQoSMet)
		}
		if r.Detail != "" {
			fmt.Fprintf(&sb, " (%s)", r.Detail)
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "final rung: %s (degraded=%v)", d.Final, d.Degraded())
	return sb.String()
}

// RobustOptions configures SolveRobust. Zero fields take defaults.
type RobustOptions struct {
	// Budget bounds the whole ladder; it is forwarded into each rung's
	// solver and re-checked between rungs. On interruption the ladder skips
	// the remaining budgeted rungs and falls through to greedy (which is
	// deterministic and effectively instant) so a caller always gets an
	// allocation.
	Budget guard.Budget
	// MaxNodes caps the exact rung's branch-and-bound (default 20000).
	MaxNodes int
	// PSO configures the metaheuristic rung; its Seed is overridden per
	// restart attempt from Seed.
	PSO pso.Options
	// PSOAttempts is the perturbed-restart count for the PSO rung
	// (default 3).
	PSOAttempts int
	// Seed drives the perturbed restarts (deterministic at any RCR_WORKERS;
	// see internal/rng).
	Seed uint64
	// Cache, when non-nil, shares compiled forms across calls: a request
	// whose column model is content-identical to an earlier one skips
	// lowering and compilation. It never changes the answer. Nil solves
	// uncached; the ladder's exact and relaxed rungs differ in shape, so a
	// per-call cache would never hit.
	Cache *prob.Cache
	// RungGate, when non-nil, is consulted before each budgeted rung; a
	// false return skips the rung with a typed "skipped: rung gated" report
	// instead of running it. This is the circuit-breaker seam: a service
	// that has watched a rung fail repeatedly opens its breaker and gates
	// the rung out until a half-open probe succeeds, so a sick backend stops
	// burning deadline budget on every request. Greedy is never gated — the
	// ladder's always-answers contract survives any gate.
	RungGate func(Rung) bool
	// Tamper, when non-nil, is forwarded into the exact and relaxed rungs'
	// prob solves (see prob.Options.Tamper): the chaos seam that corrupts
	// backend results before certification. The ladder's certifier then
	// rejects the corrupted rung, so injected corruption degrades the answer
	// rather than forging one. Production callers leave it nil; the
	// heuristic rungs (PSO, greedy) run no certified solver and are not
	// tampered.
	Tamper func(*prob.Result)
}

func (o RobustOptions) withDefaults() RobustOptions {
	if o.MaxNodes <= 0 {
		o.MaxNodes = 20000
	}
	if o.PSOAttempts <= 0 {
		o.PSOAttempts = 3
	}
	return o
}

// SolveRobust runs the degradation ladder: exact → relaxed → PSO (with
// perturbed restarts) → greedy. A rung is accepted when it produces an
// allocation meeting every QoS contract; greedy, the last rung, is accepted
// unconditionally (possibly with QoS shortfalls — the Degradation report
// says so). The returned error is non-nil only for invalid problems: faults
// and budget exhaustion degrade the answer, they do not remove it.
func (p *Problem) SolveRobust(o RobustOptions) (*Allocation, *Report, *Degradation, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, nil, err
	}
	o = o.withDefaults()
	deg := &Degradation{}
	mon := o.Budget.Start()
	// One column model for the whole ladder: the exact and relaxed rungs
	// solve the same IR (modulo the Eq. 7 integrality drop).
	cm := p.columns()

	// score evaluates a rung's allocation; a nil report means unusable.
	score := func(a *Allocation) *Report {
		if a == nil {
			return nil
		}
		rep, err := p.Evaluate(a)
		if err != nil {
			return nil
		}
		return rep
	}
	accept := func(rung Rung, a *Allocation, rep *Report, rr RungReport) (*Allocation, *Report, *Degradation, error) {
		rr.Rung = rung
		rr.Accepted = true
		rr.TotalRateBps = rep.TotalRateBps
		rr.AllQoSMet = rep.AllQoSMet
		deg.Rungs = append(deg.Rungs, rr)
		deg.Final = rung
		return a, rep, deg, nil
	}
	reject := func(rung Rung, rep *Report, rr RungReport) {
		rr.Rung = rung
		if rep != nil {
			rr.TotalRateBps = rep.TotalRateBps
			rr.AllQoSMet = rep.AllQoSMet
		}
		deg.Rungs = append(deg.Rungs, rr)
	}
	// interrupted reports a tripped ladder budget between rungs; the
	// remaining budgeted rungs are skipped (their solvers would only trip
	// the same budget at their first iteration boundary).
	interrupted := func(rung Rung) bool {
		st := mon.Check(len(deg.Rungs))
		if st == guard.StatusOK {
			return false
		}
		reject(rung, nil, RungReport{Status: st, Detail: "skipped: ladder budget exhausted"})
		return true
	}
	// gated reports a rung the caller's RungGate refused (circuit open); the
	// rung is skipped with a typed report and the ladder falls through. The
	// skip is recorded as Canceled: the rung was asked not to run, nothing
	// about the problem itself was learned.
	gated := func(rung Rung) bool {
		if o.RungGate == nil || o.RungGate(rung) {
			return false
		}
		reject(rung, nil, RungReport{Status: guard.StatusCanceled, Detail: "skipped: rung gated"})
		return true
	}

	// Rung 1: exact branch and bound.
	if !gated(RungExact) && !interrupted(RungExact) {
		alloc, sol, err := cm.solveExact(minlp.Options{MaxNodes: o.MaxNodes, Budget: o.Budget}, o.Cache, o.Tamper)
		rr := RungReport{Attempts: 1}
		if sol != nil && sol.MILP != nil {
			rr.Status = sol.MILP.Guard
			rr.Detail = fmt.Sprintf("%d nodes", sol.MILP.Nodes)
		}
		if sol != nil {
			rr.Cert = sol.Cert.String()
			// A degraded prob-level status (certification failure →
			// diverged) outranks the backend's own termination cause: the
			// trail must type *why the ladder rejected the rung*, and
			// breaker-style consumers count on failures being failures.
			if sol.Status.Failure() {
				rr.Status = sol.Status
			}
		}
		if err != nil && rr.Status == guard.StatusOK {
			rr.Status = guard.StatusDiverged
		}
		rep := score(alloc)
		if rep != nil && rep.AllQoSMet {
			return accept(RungExact, alloc, rep, rr)
		}
		reject(RungExact, rep, rr)
	}

	// Rung 2: LP relaxation + deterministic rounding (the MILP → LP move of
	// the paper's relaxed verifiers).
	if !gated(RungRelaxed) && !interrupted(RungRelaxed) {
		alloc, res, err := cm.solveRelaxed(o.Budget, o.Cache, o.Tamper)
		rr := RungReport{Attempts: 1}
		if res != nil {
			rr.Status = res.Guard
			rr.Cert = res.Cert
		}
		if err != nil && rr.Status == guard.StatusOK {
			rr.Status = guard.StatusDiverged
		}
		rep := score(alloc)
		if rep != nil && rep.AllQoSMet {
			return accept(RungRelaxed, alloc, rep, rr)
		}
		reject(RungRelaxed, rep, rr)
	}

	// Rung 3: PSO with perturbed restarts — each attempt reseeds the swarm
	// from an independent stream split off Seed, so the restart sequence is
	// bit-reproducible and scheduling-independent.
	if !gated(RungPSO) && !interrupted(RungPSO) {
		var best *Allocation
		var bestRep *Report
		var lastStatus guard.Status
		st, attempts := guard.Retry(guard.RetryOptions{Attempts: o.PSOAttempts, Seed: o.Seed},
			func(try int, r *rng.Rand) guard.Status {
				opts := o.PSO
				opts.Seed = r.Uint64()
				opts.Budget = o.Budget
				alloc, res, err := p.SolvePSO(opts)
				if res != nil {
					lastStatus = res.Status
				}
				if err != nil {
					if s, ok := guard.AsStatus(err); ok {
						lastStatus = s
						return s
					}
					lastStatus = guard.StatusDiverged
					return guard.StatusDiverged
				}
				rep := score(alloc)
				if rep == nil {
					return guard.StatusDiverged
				}
				if bestRep == nil || rep.TotalRateBps > bestRep.TotalRateBps {
					best, bestRep = alloc, rep
				}
				if rep.AllQoSMet {
					return guard.StatusConverged
				}
				return guard.StatusDiverged // retryable: try a fresh seed
			})
		rr := RungReport{Status: lastStatus, Attempts: attempts}
		if st == guard.StatusConverged && bestRep != nil && bestRep.AllQoSMet {
			rr.Status = guard.StatusConverged
			return accept(RungPSO, best, bestRep, rr)
		}
		reject(RungPSO, bestRep, rr)
	}

	// Rung 4: greedy — deterministic, unbudgeted, always answers.
	alloc, err := p.SolveGreedy()
	if err != nil {
		// Validate passed above, so this is unreachable; keep the contract
		// honest anyway.
		return nil, nil, deg, err
	}
	rep := score(alloc)
	if rep == nil {
		return nil, nil, deg, fmt.Errorf("qos: greedy allocation unscorable")
	}
	rr := RungReport{Attempts: 1, Status: guard.StatusConverged}
	if !rep.AllQoSMet {
		rr.Status = guard.StatusInfeasible
		rr.Detail = "QoS shortfall: degraded service"
	}
	return accept(RungGreedy, alloc, rep, rr)
}
