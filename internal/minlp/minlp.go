// Package minlp implements branch-and-bound over convex node relaxations —
// the "exact verifier" side of the paper's hybrid verification vector
// (§II-B-2) and the solver of record for the 5G QoS MINLPs (frequency-time
// block assignment × power control).
//
// The core is relaxation-agnostic: a node is defined by variable bounds,
// and a caller-supplied RelaxSolver produces the convex lower bound (an LP,
// QP, or QCQP — any convex surrogate). SolveMILP specializes the core to
// linear programs via the lp package.
package minlp

import (
	"container/heap"
	"errors"
	"fmt"
	"math"

	"repro/internal/guard"
	"repro/internal/lp"
)

// ErrBudget is returned when any budget — node cap, eval cap, deadline, or
// cancellation — stops the search before the tree is closed; the incumbent
// (if any) is still reported, and Result.Guard carries the specific cause.
var ErrBudget = errors.New("minlp: node budget exhausted")

// Status classifies the outcome.
type Status int

// Outcomes.
const (
	StatusOptimal Status = iota + 1
	StatusInfeasible
	StatusUnbounded
	StatusBudget // budget hit; Result holds the best incumbent and bound
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusBudget:
		return "budget-exhausted"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Guard is the canonical one-way mapping onto the shared guard taxonomy:
// every exit-code or cross-solver comparison of a minlp outcome must flow
// through this single function (cmd/qossolver and internal/prob do).
// StatusBudget maps to the generic StatusMaxIter; when a finer cause is
// known (timeout vs cancellation) the Result.Guard field already carries
// it, so callers should prefer Result.Guard when it is non-zero.
func (s Status) Guard() guard.Status {
	switch s {
	case StatusOptimal:
		return guard.StatusConverged
	case StatusInfeasible:
		return guard.StatusInfeasible
	case StatusUnbounded:
		return guard.StatusUnbounded
	case StatusBudget:
		return guard.StatusMaxIter
	default:
		return guard.StatusOK
	}
}

// RelaxStatus is what a node relaxation reports.
type RelaxStatus int

// Node relaxation outcomes.
const (
	RelaxOptimal RelaxStatus = iota + 1
	RelaxInfeasible
	RelaxUnbounded
)

// RelaxSolver solves the continuous relaxation restricted to the box
// [lo, hi] and returns the minimizer, its objective, and a status.
type RelaxSolver func(lo, hi []float64) (x []float64, obj float64, st RelaxStatus, err error)

// Options configures branch and bound. Zero fields take defaults.
type Options struct {
	// MaxNodes caps relaxations solved AND open-heap growth (the heap
	// holds at most one pending sibling per solved node, so the cap bounds
	// memory too). Non-positive values take the default; the cap is always
	// enforced — an infeasible or loose instance stops with a typed
	// budget status rather than growing the tree until OOM.
	MaxNodes int
	IntTol   float64 // integrality tolerance, default 1e-6
	GapTol   float64 // absolute optimality gap for pruning, default 1e-9
	// Budget bounds the search beyond MaxNodes: cancellation and deadline
	// are checked at node boundaries, MaxEvals caps node relaxations, and
	// the hook seam serves the fault-injection harness. SolveMILP forwards
	// Budget.Ctx into every node LP so cancellation is prompt even inside
	// a long simplex run.
	Budget guard.Budget
	// Incumbent warm-starts the search with a known feasible solution:
	// subtrees whose relaxation bound cannot beat IncumbentObj are pruned
	// immediately. The caller is responsible for feasibility.
	Incumbent    []float64
	IncumbentObj float64
}

func (o Options) withDefaults() Options {
	if o.MaxNodes <= 0 {
		o.MaxNodes = 100000
	}
	if o.IntTol == 0 {
		o.IntTol = 1e-6
	}
	if o.GapTol == 0 {
		o.GapTol = 1e-9
	}
	return o
}

// Result reports the search outcome.
type Result struct {
	Status    Status
	X         []float64
	Objective float64
	BestBound float64 // global lower bound at termination
	Nodes     int     // relaxations solved
	// Guard refines Status with the typed termination cause: Converged /
	// Infeasible / Unbounded on clean exits; MaxIter, Timeout, or Canceled
	// when a budget stopped the search (Status is then StatusBudget);
	// Diverged when node relaxations produced non-finite bounds that had
	// to be discarded.
	Guard guard.Status
	// BadNodes counts node relaxations discarded because their objective
	// or minimizer was non-finite. Non-zero BadNodes with no incumbent
	// yields Guard == StatusDiverged rather than a false "infeasible".
	BadNodes int
}

// Gap returns Objective - BestBound, the absolute optimality gap of the
// incumbent: at most GapTol on optimal exits, possibly large on budget
// exits, and meaningless (±Inf arithmetic) when no incumbent exists —
// check Status first. A-posteriori certifiers use it for the
// bound-consistency check: a valid incumbent can never beat the global
// lower bound, so a materially negative Gap marks a corrupted result.
func (r *Result) Gap() float64 { return r.Objective - r.BestBound }

type node struct {
	lo, hi []float64
	bound  float64
}

type nodeHeap []*node

func (h nodeHeap) Len() int            { return len(h) }
func (h nodeHeap) Less(i, j int) bool  { return h[i].bound < h[j].bound }
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Problem is the typed MINLP: the root box, the integrality marks, and the
// caller-supplied convex node relaxation. It mirrors the vector part of the
// internal/prob IR (bounds + integer marks), which is what produces these
// values in the lowered pipeline; the relaxation closure carries whatever
// convex surrogate the lowering chose.
type Problem struct {
	// NumVars is the variable count; Lo and Hi must have exactly this
	// length (entries may be ±Inf for continuous variables; integer
	// variables should be given finite bounds or acquire them through the
	// relaxation's constraints).
	NumVars int
	// Integer lists the indices required integral.
	Integer []int
	Lo, Hi  []float64
	// Relax solves the continuous relaxation on a node box.
	Relax RelaxSolver
}

// SolveProblem runs best-first branch and bound on the typed problem.
func SolveProblem(p *Problem, o Options) (*Result, error) {
	o = o.withDefaults()
	n, intVars, lo, hi, relax := p.NumVars, p.Integer, p.Lo, p.Hi, p.Relax
	if relax == nil {
		return nil, fmt.Errorf("minlp: nil relaxation solver")
	}
	if len(lo) != n || len(hi) != n {
		return nil, fmt.Errorf("minlp: bounds length %d/%d for n=%d", len(lo), len(hi), n)
	}
	for _, j := range intVars {
		if j < 0 || j >= n {
			return nil, fmt.Errorf("minlp: integer index %d out of range [0,%d)", j, n)
		}
	}
	res := &Result{Status: StatusInfeasible, Objective: math.Inf(1), BestBound: math.Inf(-1)}
	if o.Incumbent != nil {
		res.Status = StatusOptimal
		res.X = cloneF(o.Incumbent)
		res.Objective = o.IncumbentObj
	}
	root := &node{lo: cloneF(lo), hi: cloneF(hi), bound: math.Inf(-1)}
	open := &nodeHeap{root}
	heap.Init(open)

	mon := o.Budget.Start()
	// budgetExit finalizes an interrupted search: the incumbent (if any)
	// stays in res, Status flags the budget, and Guard carries the cause.
	budgetExit := func(st guard.Status) (*Result, error) {
		res.Status = StatusBudget
		res.Guard = st
		if open.Len() > 0 {
			res.BestBound = (*open)[0].bound
		}
		return res, fmt.Errorf("%w: %v after %d nodes", ErrBudget, st, res.Nodes)
	}

	// dive implements depth-first plunging: after branching, the more
	// promising child is processed immediately (finding integral
	// incumbents early) while its sibling joins the best-first queue.
	var dive *node
	for open.Len() > 0 || dive != nil {
		// MaxNodes caps both relaxations and heap growth (each processed
		// node pushes at most one sibling), so this check is the OOM guard
		// for infeasible/loose instances as well as the work cap.
		if res.Nodes >= o.MaxNodes {
			return budgetExit(guard.StatusMaxIter)
		}
		if st := mon.Check(res.Nodes); st != guard.StatusOK {
			return budgetExit(st)
		}
		var nd *node
		if dive != nil {
			nd = dive
			dive = nil
		} else {
			nd = heap.Pop(open).(*node)
		}
		if nd.bound >= res.Objective-o.GapTol {
			continue // dominated by the incumbent
		}
		x, obj, st, err := relax(nd.lo, nd.hi)
		res.Nodes++
		mon.AddEvals(1)
		if err != nil {
			// A budget tripping inside the node solver (e.g. the context
			// forwarded into a long LP) is an interruption, not a broken
			// relaxation: keep the incumbent and classify it.
			if gs, ok := guard.AsStatus(err); ok {
				res.Status = StatusBudget
				res.Guard = gs
				if open.Len() > 0 {
					res.BestBound = (*open)[0].bound
				}
				return res, fmt.Errorf("%w: %v after %d nodes", ErrBudget, gs, res.Nodes)
			}
			return res, fmt.Errorf("minlp: node relaxation: %w", err)
		}
		switch st {
		case RelaxInfeasible:
			continue
		case RelaxUnbounded:
			// An unbounded relaxation at the root with no incumbent means
			// the MINLP itself may be unbounded; deeper in the tree it
			// still prevents bounding, so surface it.
			res.Status = StatusUnbounded
			res.Guard = guard.StatusUnbounded
			return res, nil
		}
		// Divergence sentinel: a non-finite node bound or minimizer would
		// poison every pruning comparison from here on (NaN compares false
		// against everything), so discard the node and record it.
		if !guard.Finite(obj) || !guard.AllFinite(x) {
			res.BadNodes++
			continue
		}
		if obj >= res.Objective-o.GapTol {
			continue
		}
		// Find the most fractional integer variable.
		branchVar := -1
		worst := o.IntTol
		for _, j := range intVars {
			f := math.Abs(x[j] - math.Round(x[j]))
			if f > worst {
				worst = f
				branchVar = j
			}
		}
		if branchVar < 0 {
			// Integral: new incumbent.
			if obj < res.Objective {
				res.Objective = obj
				res.X = cloneF(x)
				// Snap integer components exactly.
				for _, j := range intVars {
					res.X[j] = math.Round(res.X[j])
				}
				res.Status = StatusOptimal
			}
			continue
		}
		down := &node{lo: cloneF(nd.lo), hi: cloneF(nd.hi), bound: obj}
		down.hi[branchVar] = math.Floor(x[branchVar])
		up := &node{lo: cloneF(nd.lo), hi: cloneF(nd.hi), bound: obj}
		up.lo[branchVar] = math.Ceil(x[branchVar])
		downOK := down.lo[branchVar] <= down.hi[branchVar]
		upOK := up.lo[branchVar] <= up.hi[branchVar]
		// Plunge toward the side the LP solution leans to.
		preferUp := x[branchVar]-math.Floor(x[branchVar]) >= 0.5
		switch {
		case downOK && upOK && preferUp:
			dive = up
			heap.Push(open, down)
		case downOK && upOK:
			dive = down
			heap.Push(open, up)
		case upOK:
			dive = up
		case downOK:
			dive = down
		}
	}
	switch {
	case res.Status == StatusOptimal:
		res.BestBound = res.Objective
		res.Guard = guard.StatusConverged
	case res.BadNodes > 0:
		// Every surviving node was discarded for non-finite relaxations:
		// "infeasible" would be a lie — the search diverged.
		res.Guard = guard.StatusDiverged
	default:
		res.Guard = guard.StatusInfeasible
	}
	return res, nil
}

func cloneF(xs []float64) []float64 {
	return append([]float64(nil), xs...)
}

// MILP is a mixed-integer linear program: the embedded LP plus a list of
// variable indices constrained to integer values.
type MILP struct {
	LP      lp.Problem
	Integer []int
}

// SolveMILP runs branch and bound with LP node relaxations.
func SolveMILP(m *MILP, o Options) (*Result, error) {
	n := m.LP.NumVars
	rootLo := make([]float64, n)
	rootHi := make([]float64, n)
	for j := 0; j < n; j++ {
		if m.LP.Lo != nil {
			rootLo[j] = boundAt(m.LP.Lo, j, math.Inf(-1))
		} else {
			rootLo[j] = 0
		}
		if m.LP.Hi != nil {
			rootHi[j] = boundAt(m.LP.Hi, j, math.Inf(1))
		} else {
			rootHi[j] = math.Inf(1)
		}
	}
	relax := func(lo, hi []float64) ([]float64, float64, RelaxStatus, error) {
		sub := lp.Problem{
			NumVars:     n,
			Objective:   m.LP.Objective,
			Constraints: m.LP.Constraints,
			Lo:          lo,
			Hi:          hi,
		}
		// Only the context is forwarded into node LPs: deadline and eval
		// accounting stay at the tree level (one eval per node), but a
		// canceled context must interrupt even a long simplex run promptly.
		sol, err := lp.SolveBudget(&sub, guard.Budget{Ctx: o.Budget.Ctx})
		if err != nil {
			return nil, 0, RelaxInfeasible, err
		}
		switch sol.Status {
		case lp.StatusOptimal:
			return sol.X, sol.Objective, RelaxOptimal, nil
		case lp.StatusInfeasible:
			return nil, 0, RelaxInfeasible, nil
		default:
			return nil, 0, RelaxUnbounded, nil
		}
	}
	return SolveProblem(&Problem{NumVars: n, Integer: m.Integer, Lo: rootLo, Hi: rootHi, Relax: relax}, o)
}

func boundAt(bs []float64, j int, def float64) float64 {
	if j < len(bs) {
		return bs[j]
	}
	return def
}
