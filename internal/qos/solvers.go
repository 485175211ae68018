package qos

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/minlp"
	"repro/internal/prob"
	"repro/internal/pso"
)

// SolveGreedy allocates RBs in two passes: first it serves unmet minimum
// rates (each round giving the worst-satisfied user its best remaining
// block at the highest admissible level), then it assigns leftover blocks
// to whichever user/level pair adds the most rate within budget. It is the
// baseline heuristic of the T5 experiment.
func (p *Problem) SolveGreedy() (*Allocation, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	nRB := p.Inst.Params.NumRBs
	alloc := NewAllocation(nRB)
	usedPower := make([]float64, len(p.Users))
	rate := make([]float64, len(p.Users))
	assigned := make([]bool, nRB)

	bestLevel := func(u, rb int) (float64, bool) {
		for i := len(p.Levels) - 1; i >= 0; i-- {
			l := p.Levels[i]
			if usedPower[u]+l <= p.PowerBudgetW && p.allowed(u, rb, l) {
				return l, true
			}
		}
		return 0, false
	}

	// Pass 1: satisfy minimum rates, most-deficient user first.
	for {
		worst, worstDef := -1, 0.0
		for u, usr := range p.Users {
			def := p.Reqs[usr.Class].MinRateBps - rate[u]
			if def > worstDef {
				worstDef = def
				worst = u
			}
		}
		if worst < 0 {
			break
		}
		bestRB, bestGain := -1, 0.0
		var bestPw float64
		for rb := 0; rb < nRB; rb++ {
			if assigned[rb] {
				continue
			}
			if l, ok := bestLevel(worst, rb); ok {
				if g := p.Inst.RateBps(worst, rb, l); g > bestGain {
					bestGain = g
					bestRB = rb
					bestPw = l
				}
			}
		}
		if bestRB < 0 {
			break // cannot improve this user; give up on pass 1
		}
		assigned[bestRB] = true
		alloc.UserOf[bestRB] = worst
		alloc.PowerW[bestRB] = bestPw
		usedPower[worst] += bestPw
		rate[worst] += bestGain
	}

	// Pass 2: fill remaining blocks by marginal rate.
	type cand struct {
		rb, u int
		pw    float64
		gain  float64
	}
	for {
		var cands []cand
		for rb := 0; rb < nRB; rb++ {
			if assigned[rb] {
				continue
			}
			for u := range p.Users {
				if l, ok := bestLevel(u, rb); ok {
					cands = append(cands, cand{rb, u, l, p.Inst.RateBps(u, rb, l)})
				}
			}
		}
		if len(cands) == 0 {
			break
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i].gain > cands[j].gain })
		c := cands[0]
		assigned[c.rb] = true
		alloc.UserOf[c.rb] = c.u
		alloc.PowerW[c.rb] = c.pw
		usedPower[c.u] += c.pw
		rate[c.u] += c.gain
	}
	return alloc, nil
}

// SolveExact solves the discretized RRA exactly by branch and bound over
// the binary column-selection MILP (see Columns.IR). Returns the
// allocation and the BnB statistics.
func (p *Problem) SolveExact(o minlp.Options) (*Allocation, *minlp.Result, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	alloc, sol, err := p.columns().solveExact(o, nil, nil)
	var res *minlp.Result
	if sol != nil {
		res = sol.MILP
	}
	return alloc, res, err
}

// solveExact runs the exact rung on the column model, optionally sharing a
// compiled-forms cache with other rungs or batch instances. The full
// prob.Result is returned (not just the BnB statistics) so ladder callers
// can audit the a-posteriori certificate verdict.
func (c *Columns) solveExact(o minlp.Options, cache *prob.Cache, tamper func(*prob.Result)) (*Allocation, *prob.Result, error) {
	po := prob.Options{
		Budget:    o.Budget,
		MaxNodes:  o.MaxNodes,
		IntTol:    o.IntTol,
		GapTol:    o.GapTol,
		Incumbent: o.Incumbent,
		Cache:     cache,
		Tamper:    tamper,
	}
	// Warm start: if the greedy heuristic happens to produce a fully
	// feasible solution of the discretized model, hand it to the BnB as an
	// incumbent so dominated subtrees are pruned from the first node
	// (prob.Solve verifies feasibility and computes the backend objective).
	if po.Incumbent == nil {
		if x0, ok := c.GreedyIncumbent(); ok {
			po.Incumbent = x0
		}
	}
	sol, err := prob.Solve(c.IR, po)
	var res *minlp.Result
	if sol != nil {
		res = sol.MILP
	}
	if err != nil && !errors.Is(err, minlp.ErrBudget) {
		return nil, sol, fmt.Errorf("qos: exact solve: %w", err)
	}
	// StatusOptimal carries the proven optimum; StatusBudget carries the
	// best incumbent found before the node budget ran out (res.BestBound
	// quantifies the remaining gap). Both decode to an allocation.
	if res == nil || res.X == nil || (res.Status != minlp.StatusOptimal && res.Status != minlp.StatusBudget) {
		return nil, sol, nil
	}
	alloc, err := c.Allocation(res.X)
	return alloc, sol, err
}

// SolvePSO solves the discretized RRA with particle swarm optimization:
// one integer dimension per RB choosing (user+1)*levels combinations
// (0 = unassigned), with QoS and budget violations penalized. This is the
// metaheuristic arm of the T5 comparison.
func (p *Problem) SolvePSO(opts pso.Options) (*Allocation, *pso.Result, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	nRB := p.Inst.Params.NumRBs
	nU := len(p.Users)
	nL := len(p.Levels)
	combos := nU*nL + 1 // 0 = unassigned
	dims := make([]pso.Dim, nRB)
	for i := range dims {
		dims[i] = pso.Dim{Lo: 0, Hi: float64(combos - 1), Integer: true}
	}
	if opts.Encoding == 0 {
		opts.Encoding = pso.EncodingRounding
	}
	// The objective below decodes into a fresh Allocation per call and
	// p.Evaluate only reads the problem, so concurrent evaluation is safe.
	opts.Parallel = true
	decode := func(x []float64) *Allocation {
		a := NewAllocation(nRB)
		for rb, v := range x {
			c := int(v)
			if c == 0 {
				continue
			}
			c--
			a.UserOf[rb] = c / nL
			a.PowerW[rb] = p.Levels[c%nL]
		}
		return a
	}
	objective := func(x []float64) float64 {
		a := decode(x)
		rep, err := p.Evaluate(a)
		if err != nil {
			return math.Inf(1)
		}
		// Penalty-augmented negative rate (normalized to Mbps scale).
		pen := 0.0
		if rep.BudgetViolated {
			pen += 50
		}
		if rep.SNRViolated {
			pen += 50
		}
		for u, ok := range rep.QoSMet {
			if !ok {
				deficit := p.Reqs[p.Users[u].Class].MinRateBps - rep.RatePerUser[u]
				pen += 10 + deficit/1e6
			}
		}
		return -rep.TotalRateBps/1e6 + pen
	}
	res, err := pso.Minimize(&pso.Problem{Dims: dims, Eval: objective}, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("qos: pso solve: %w", err)
	}
	return decode(res.X), res, nil
}
