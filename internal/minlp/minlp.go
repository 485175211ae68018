// Package minlp implements branch and bound over LP node relaxations — the
// "exact verifier" side of the paper's hybrid verification vector
// (§II-B-2) and the solver of record for the 5G QoS MINLPs (frequency-time
// block assignment × power control), which internal/prob lowers to MILPs.
//
// SolveMILP owns both the tree and its node LP: a node is a box of variable
// bounds over the MILP's rows, and its lower bound is the lp package's
// solve of the LP restricted to that box.
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

// MILP is a mixed-integer linear program: the embedded LP plus a list of
// variable indices constrained to integer values.
type MILP struct {
	LP      lp.Problem
	Integer []int
}

// SolveMILP runs best-first branch and bound with depth-first plunging,
// solving each node's LP relaxation over the node's box.
func SolveMILP(m *MILP, o Options) (*Result, error) {
	o = o.withDefaults()
	n, intVars := m.LP.NumVars, m.Integer
	for _, j := range intVars {
		if j < 0 || j >= n {
			return nil, fmt.Errorf("minlp: integer index %d out of range [0,%d)", j, n)
		}
	}
	// The root box: the LP's bounds, with missing entries defaulting to
	// [0, +Inf) when the LP gives no bounds at all and to ±Inf past the end
	// of a short bounds slice.
	lo := make([]float64, n)
	hi := make([]float64, n)
	for j := 0; j < n; j++ {
		if m.LP.Lo != nil {
			lo[j] = boundAt(m.LP.Lo, j, math.Inf(-1))
		}
		if m.LP.Hi != nil {
			hi[j] = boundAt(m.LP.Hi, j, math.Inf(1))
		} else {
			hi[j] = math.Inf(1)
		}
	}
	res := &Result{Status: StatusInfeasible, Objective: math.Inf(1), BestBound: math.Inf(-1)}
	if o.Incumbent != nil {
		res.Status = StatusOptimal
		res.X = cloneF(o.Incumbent)
		res.Objective = o.IncumbentObj
	}
	root := &node{lo: lo, hi: hi, bound: math.Inf(-1)}
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
		// Only the context is forwarded into node LPs: deadline and eval
		// accounting stay at the tree level (one eval per node), but a
		// canceled context must interrupt even a long simplex run promptly.
		sol, err := lp.SolveBudget(&lp.Problem{
			NumVars:     n,
			Objective:   m.LP.Objective,
			Constraints: m.LP.Constraints,
			Lo:          nd.lo,
			Hi:          nd.hi,
		}, guard.Budget{Ctx: o.Budget.Ctx})
		res.Nodes++
		mon.AddEvals(1)
		if err != nil {
			// A budget tripping inside the node solver (e.g. the context
			// forwarded into a long LP) is an interruption, not a broken
			// relaxation: keep the incumbent and classify it.
			if gs, ok := guard.AsStatus(err); ok {
				return budgetExit(gs)
			}
			return res, fmt.Errorf("minlp: node relaxation: %w", err)
		}
		if sol.Status == lp.StatusInfeasible {
			continue
		}
		if sol.Status != lp.StatusOptimal {
			// An unbounded relaxation at the root with no incumbent means
			// the MINLP itself may be unbounded; deeper in the tree it
			// still prevents bounding, so surface it.
			res.Status = StatusUnbounded
			res.Guard = guard.StatusUnbounded
			return res, nil
		}
		x, obj := sol.X, sol.Objective
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

func boundAt(bs []float64, j int, def float64) float64 {
	if j < len(bs) {
		return bs[j]
	}
	return def
}
