package qos

// The column-selection model of the discretized RRA: the one formulation
// the exact rung (SolveExact), the relaxed rung (SolveRelaxed), the ladder
// (SolveRobust) and the distributed solve path (DESIGN.md §16) all solve.
// The coordinator in internal/dist ships the IR to worker processes and
// decodes the returned 0/1 vector back into an Allocation on its own side
// of the trust boundary — which needs the column enumeration (stable
// (user, rb, level) order) without re-exporting the solver rungs
// themselves. Every caller goes through Columns, so the remote and local
// formulations can never drift apart.

import (
	"fmt"

	"repro/internal/prob"
)

// column is one admissible (user, rb, level) assignment.
type column struct {
	u, rb, level int
	rate         float64
}

// Columns binds a problem to its column-selection MILP: the IR to solve and
// the enumeration needed to interpret its variables.
type Columns struct {
	p    *Problem
	cols []column
	// IR is the column-selection MILP as a prob.Problem:
	//
	//	max  Σ rate_c x_c
	//	s.t. Σ_{c on rb} x_c <= 1            (one user+level per block)
	//	     Σ_{c of u} P_c x_c <= budget    (per-user power)
	//	     Σ_{c of u} rate_c x_c >= minRate(u)
	//
	// one binary variable per admissible column. Compilation negates the
	// objective into the backends' minimize form, producing a MILP
	// element-identical to the historically hand-built one (pinned by the
	// golden tests). Callers must treat it as read-only.
	IR *prob.Problem
}

// ColumnModel builds the column-selection model for p. The column order —
// and therefore the IR's variable order — is a pure function of the
// problem, so two processes building the model from the same problem agree
// bit-for-bit on the formulation.
func (p *Problem) ColumnModel() (*Columns, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p.columns(), nil
}

// columns builds the column model of an already-validated problem.
func (p *Problem) columns() *Columns {
	var cols []column
	for u := range p.Users {
		for rb := 0; rb < p.Inst.Params.NumRBs; rb++ {
			for li, l := range p.Levels {
				if !p.allowed(u, rb, l) {
					continue
				}
				cols = append(cols, column{u: u, rb: rb, level: li, rate: p.Inst.RateBps(u, rb, l)})
			}
		}
	}
	n := len(cols)
	ir := &prob.Problem{
		NumVars: n,
		Obj:     prob.Objective{Maximize: true, Lin: make([]float64, n)},
		Lo:      make([]float64, n),
		Hi:      make([]float64, n),
		Integer: make([]int, n),
	}
	for i, c := range cols {
		ir.Obj.Lin[i] = c.rate
		ir.Hi[i] = 1
		ir.Integer[i] = i
	}
	// One column per RB.
	for rb := 0; rb < p.Inst.Params.NumRBs; rb++ {
		row := make([]float64, n)
		any := false
		for i, c := range cols {
			if c.rb == rb {
				row[i] = 1
				any = true
			}
		}
		if any {
			ir.Lin = append(ir.Lin, prob.LinCon{Coeffs: row, Sense: prob.LE, RHS: 1})
		}
	}
	// Per-user power budget and minimum rate.
	for u := range p.Users {
		pRow := make([]float64, n)
		rRow := make([]float64, n)
		for i, c := range cols {
			if c.u == u {
				pRow[i] = p.Levels[c.level]
				rRow[i] = c.rate
			}
		}
		ir.Lin = append(ir.Lin,
			prob.LinCon{Coeffs: pRow, Sense: prob.LE, RHS: p.PowerBudgetW},
			prob.LinCon{Coeffs: rRow, Sense: prob.GE, RHS: p.Reqs[p.Users[u].Class].MinRateBps},
		)
	}
	return &Columns{p: p, cols: cols, IR: ir}
}

// Len returns the number of admissible columns (IR variables).
func (c *Columns) Len() int { return len(c.cols) }

// Allocation decodes a 0/1 solution vector of the column MILP into an
// Allocation, using the same >0.5 rounding as the exact rung. The vector
// length must match the column count.
func (c *Columns) Allocation(x []float64) (*Allocation, error) {
	if len(x) != len(c.cols) {
		return nil, fmt.Errorf("%w: solution over %d columns, model has %d", ErrProblem, len(x), len(c.cols))
	}
	alloc := NewAllocation(c.p.Inst.Params.NumRBs)
	for i, col := range c.cols {
		if x[i] > 0.5 {
			alloc.UserOf[col.rb] = col.u
			alloc.PowerW[col.rb] = c.p.Levels[col.level]
		}
	}
	return alloc, nil
}

// GreedyIncumbent maps the greedy heuristic's allocation onto the columns
// as a warm-start incumbent for branch and bound, exactly as the exact rung
// computes it. ok is false when the greedy point is infeasible for the
// discretized model (off-grid power, unmet QoS) — the solve then simply
// starts cold. Shipping this vector with a dispatched subproblem is what
// keeps remote and local-fallback branch-and-bound runs bit-identical: both
// prune from the same incumbent.
func (c *Columns) GreedyIncumbent() ([]float64, bool) {
	p := c.p
	alloc, err := p.SolveGreedy()
	if err != nil {
		return nil, false
	}
	rep, err := p.Evaluate(alloc)
	if err != nil || !rep.AllQoSMet {
		return nil, false
	}
	x := make([]float64, len(c.cols))
	matched := 0
	needed := 0
	for rb, u := range alloc.UserOf {
		if u < 0 {
			continue
		}
		needed++
		for i, col := range c.cols {
			//lint:ignore floateq PowerW is copied verbatim from p.Levels in discretize; bitwise re-identification is intended
			if col.rb == rb && col.u == u && p.Levels[col.level] == alloc.PowerW[rb] {
				x[i] = 1
				matched++
				break
			}
		}
	}
	if matched != needed {
		return nil, false // greedy used a power outside the level grid
	}
	return x, true
}
