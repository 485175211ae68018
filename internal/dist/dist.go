// Package dist extends internal/par's deterministic ordered-reduction
// contract across process boundaries (DESIGN.md §16, ROADMAP item 3): a
// coordinator decomposes a multi-cell RRA problem into per-cell column-MILP
// subproblems (the paper's Eq. 7–10 instances, one per cell, coupled through
// inter-cell interference), fans them out to worker processes over the
// versioned wire format, and merges the replies through an ordered reduction
// that is bit-identical for any worker count, arrival order, or failure
// pattern.
//
// Robustness is the core of the design. Every remote reply crosses four
// trust layers — frame checksum, typed decode, fingerprint match, and
// mandatory coordinator-side recertification (prob.Recertify) — and a reply
// that fails any of them is quarantined.
// Dead, slow, and refusing workers surface as typed guard.Status outcomes
// through heartbeat tracking, seeded-jitter hedged re-dispatch, and
// per-worker circuit breakers; a subproblem no worker can deliver is solved
// locally, and a local solve that cannot converge degrades to the greedy
// rung — so the coordinator always returns a typed, certified answer, even
// with zero live workers.
//
// The determinism argument is acceptance-side, not scheduling-side: both
// ends of the wire run the identical deterministic solve (solveSpec) on the
// identical spec — same IR, same shipped incumbent, same knobs — so a
// remote result, a hedged duplicate, and a local fallback all carry the
// same bits, and "first valid wins" cannot introduce nondeterminism. The
// contract is unconditional for wall-clock-free budgets (the chaos and
// determinism suites run eval-cap-only budgets); an armed deadline keeps
// every outcome typed and certified but can, by construction, convert a
// late answer into a typed degradation.
package dist

import (
	"fmt"
	"math"
	"time"

	"repro/internal/guard"
	"repro/internal/prob"
	"repro/internal/qos"
)

// MultiCell is a multi-cell RRA problem: per-cell single-cell instances plus
// the inter-cell interference coupling the sweeps resolve.
type MultiCell struct {
	// Cells are the per-cell RRA problems. All cells must span the same
	// number of resource blocks (interference is per-RB).
	Cells []*qos.Problem
	// Coupling[i][j] is the fraction of cell j's per-RB transmit power that
	// arrives as interference in cell i (0 on the diagonal). Nil means
	// uncoupled cells (a single sweep then suffices).
	Coupling [][]float64
	// Sweeps is the number of interference sweeps; 0 takes the default 2.
	// Each sweep re-solves every cell against the interference implied by
	// the previous sweep's allocations (block-Jacobi within a sweep, with
	// the ordered cross-cell interference update between sweeps playing the
	// Gauss–Seidel coupling round). A fixed sweep count — never a
	// convergence threshold — keeps the reduction deterministic.
	Sweeps int
}

// defaultSweeps is the interference-sweep count when MultiCell.Sweeps is 0.
const defaultSweeps = 2

// sweeps resolves the sweep-count convention.
func (mc *MultiCell) sweeps() int {
	if mc.Sweeps <= 0 {
		return defaultSweeps
	}
	return mc.Sweeps
}

// Validate checks structural consistency.
func (mc *MultiCell) Validate() error {
	if mc == nil || len(mc.Cells) == 0 {
		return fmt.Errorf("%w: no cells", qos.ErrProblem)
	}
	nRB := -1
	for i, c := range mc.Cells {
		if c == nil {
			return fmt.Errorf("%w: cell %d is nil", qos.ErrProblem, i)
		}
		if err := c.Validate(); err != nil {
			return fmt.Errorf("cell %d: %w", i, err)
		}
		if nRB < 0 {
			nRB = c.Inst.Params.NumRBs
		} else if c.Inst.Params.NumRBs != nRB {
			return fmt.Errorf("%w: cell %d spans %d RBs, cell 0 spans %d", qos.ErrProblem, i, c.Inst.Params.NumRBs, nRB)
		}
	}
	if mc.Coupling != nil {
		if len(mc.Coupling) != len(mc.Cells) {
			return fmt.Errorf("%w: coupling over %d rows for %d cells", qos.ErrProblem, len(mc.Coupling), len(mc.Cells))
		}
		for i, row := range mc.Coupling {
			if len(row) != len(mc.Cells) {
				return fmt.Errorf("%w: coupling row %d has %d entries", qos.ErrProblem, i, len(row))
			}
			for j, v := range row {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					return fmt.Errorf("%w: coupling[%d][%d] = %g", qos.ErrProblem, i, j, v)
				}
				if i == j && v != 0 {
					return fmt.Errorf("%w: coupling diagonal [%d][%d] must be 0", qos.ErrProblem, i, j)
				}
			}
		}
	}
	return nil
}

// GenerateMultiCell builds a reproducible nCells-cell problem with the given
// per-cell user mix and a uniform pairwise coupling strength. Cell k draws
// its channel from seed+k, so the cells are independent realizations.
//
// The coupling parameter is in noise-floor units: a neighbor transmitting
// 1 W on an RB injects coupling× the victim cell's per-RB noise power as
// interference (Coupling[i][j] = coupling·NoiseW_i). Physical cross-cell
// gains sit many orders of magnitude below transmit power — the same order
// as the serving gains themselves — so a scale-free parameterization
// against the noise floor is the meaningful knob: coupling ≈ 1 perturbs
// SINRs noticeably without making the generated QoS targets unsatisfiable.
func GenerateMultiCell(nCells, nEMBB, nURLLC, nMMTC, numRBs int, coupling float64, seed uint64) (*MultiCell, error) {
	if nCells < 1 {
		return nil, fmt.Errorf("%w: %d cells", qos.ErrProblem, nCells)
	}
	mc := &MultiCell{}
	for k := 0; k < nCells; k++ {
		cell, err := qos.GenerateProblem(nEMBB, nURLLC, nMMTC, numRBs, seed+uint64(k))
		if err != nil {
			return nil, err
		}
		mc.Cells = append(mc.Cells, cell)
	}
	if coupling > 0 {
		mc.Coupling = make([][]float64, nCells)
		for i := range mc.Coupling {
			mc.Coupling[i] = make([]float64, nCells)
			for j := range mc.Coupling[i] {
				if i != j {
					mc.Coupling[i][j] = coupling * mc.Cells[i].Inst.NoiseW
				}
			}
		}
	}
	return mc, mc.Validate()
}

// interference returns the per-cell, per-RB interference power implied by
// the current allocations: cell i's RB b receives Σ_{j≠i}
// Coupling[i][j]·p_j[b]. The sum runs in ascending j — the ordered
// reduction that keeps the coupling round bit-identical however the
// per-cell results arrived. A nil allocation (cell not yet solved)
// contributes nothing.
func (mc *MultiCell) interference(allocs []*qos.Allocation) [][]float64 {
	if mc.Coupling == nil {
		return nil
	}
	n := len(mc.Cells)
	nRB := mc.Cells[0].Inst.Params.NumRBs
	out := make([][]float64, n)
	for i := 0; i < n; i++ {
		out[i] = make([]float64, nRB)
		for j := 0; j < n; j++ {
			if j == i || allocs[j] == nil || mc.Coupling[i][j] == 0 {
				continue
			}
			g := mc.Coupling[i][j]
			for b, pw := range allocs[j].PowerW {
				out[i][b] += g * pw
			}
		}
	}
	return out
}

// cellProblem folds cell i's interference into a standalone single-cell
// problem by gain scaling: with interference I[b], the true SINR is
// G·p/(N+I[b]), which equals the SNR of a clone whose gains are scaled to
// G′ = G·N/(N+I[b]). The clone therefore reuses every single-cell solver,
// certificate, and wire codec unchanged. interf nil means no interference
// (the scale factor is exactly 1, so the clone is bit-identical to the
// original).
func (mc *MultiCell) cellProblem(i int, interf [][]float64) *qos.Problem {
	src := mc.Cells[i]
	cp := *src
	inst := *src.Inst
	inst.Gain = make([][]float64, len(src.Inst.Gain))
	for u, row := range src.Inst.Gain {
		scaled := make([]float64, len(row))
		for b, g := range row {
			scale := 1.0
			if interf != nil && interf[i][b] > 0 {
				scale = inst.NoiseW / (inst.NoiseW + interf[i][b])
			}
			scaled[b] = g * scale
		}
		inst.Gain[u] = scaled
	}
	cp.Inst = &inst
	return &cp
}

// subproblem is one dispatched per-cell solve: the spec both ends of the
// wire execute identically. Budget carries only transferable bounds (the
// deadline is the remaining duration at dispatch time).
type subproblem struct {
	Job   uint64
	Sweep uint32
	Cell  uint32
	// Budget bounds the solve: Deadline is remaining time at dispatch,
	// MaxEvals the per-dispatch evaluation cap. Ctx/Hook never travel.
	Budget guard.Budget
	// MILP knobs, forwarded verbatim to prob.Options.
	MaxNodes int
	IntTol   float64
	GapTol   float64
	// Incumbent is the coordinator-computed greedy warm start. Shipping it
	// (rather than recomputing worker-side) is what keeps remote and
	// local-fallback branch-and-bound runs pruning from identical bounds.
	Incumbent []float64
	// IR is the column-selection MILP for the (interference-folded) cell.
	IR *prob.Problem
}

// solveSpec is the one deterministic solve both the worker and the
// coordinator's local fallback run: prob.Solve on the spec's IR with
// exactly the spec's knobs, incumbent, and budget. Its determinism (for
// wall-clock-free budgets) is the root of the merge's bit-identity
// guarantee.
func solveSpec(sp *subproblem) (*prob.Result, error) {
	return prob.Solve(sp.IR, prob.Options{
		Budget:    sp.Budget,
		MaxNodes:  sp.MaxNodes,
		IntTol:    sp.IntTol,
		GapTol:    sp.GapTol,
		Incumbent: sp.Incumbent,
	})
}

// CellSource records which rung of the survival ladder produced a cell's
// accepted result.
type CellSource int

// Survival-ladder rungs, in preference order.
const (
	// SourceRemote: a worker's reply, recertified at the trust boundary.
	SourceRemote CellSource = iota
	// SourceLocal: the coordinator's own deterministic solve (no worker
	// delivered, or a remote solve reported a typed non-converged status —
	// re-dispatching a deterministic failure is pointless, so the
	// coordinator confirms locally).
	SourceLocal
	// SourceGreedy: the final rung — the local solve could not certify a
	// converged answer, so the deterministic greedy heuristic supplies the
	// allocation and the solve's typed status records the degradation.
	SourceGreedy
)

// String implements fmt.Stringer.
func (s CellSource) String() string {
	switch s {
	case SourceRemote:
		return "remote"
	case SourceLocal:
		return "local"
	case SourceGreedy:
		return "greedy"
	default:
		return fmt.Sprintf("source(%d)", int(s))
	}
}

// CellResult is one cell's merged outcome (from the final sweep).
type CellResult struct {
	// Alloc is the accepted allocation — never nil for a validated problem.
	Alloc *qos.Allocation
	// Result is the certified per-cell solver result backing Alloc; nil
	// only on the greedy rung when the local solve returned no result at
	// all.
	Result *prob.Result
	// Source is the survival-ladder rung that produced Alloc.
	Source CellSource
	// Status is the cell's typed outcome: StatusConverged for a certified
	// optimum, or the typed degradation the ladder ended on.
	Status guard.Status
	// Worker is the id of the worker whose reply was accepted, -1 for the
	// local rungs.
	Worker int
}

// MultiResult is the merged multi-cell answer.
type MultiResult struct {
	Cells []CellResult
	// Status is StatusConverged when every cell certified, otherwise the
	// typed status of the first (lowest-index) degraded cell — the ordered
	// reduction applied to outcomes.
	Status guard.Status
	Stats  Stats
}

// TotalRateBps sums the evaluated total rate over all cells under the
// interference implied by the merged allocations — the multi-cell
// objective.
func (mr *MultiResult) TotalRateBps(mc *MultiCell) (float64, error) {
	allocs := make([]*qos.Allocation, len(mr.Cells))
	for i := range mr.Cells {
		allocs[i] = mr.Cells[i].Alloc
	}
	interf := mc.interference(allocs)
	var total float64
	for i := range mr.Cells {
		rep, err := mc.cellProblem(i, interf).Evaluate(mr.Cells[i].Alloc)
		if err != nil {
			return 0, err
		}
		total += rep.TotalRateBps
	}
	return total, nil
}

// Stats aggregates the solve's robustness accounting.
type Stats struct {
	Sweeps int `json:"sweeps"`
	Cells  int `json:"cells"`
	// Ladder outcomes (counted per cell per sweep).
	RemoteAccepted int `json:"remoteAccepted"`
	LocalFallback  int `json:"localFallback"`
	GreedyFallback int `json:"greedyFallback"`
	// Failure handling.
	Hedged              int            `json:"hedged"`              // straggler re-dispatches
	Redispatched        int            `json:"redispatched"`        // jobs requeued after a worker failure
	TamperedQuarantined int            `json:"tamperedQuarantined"` // replies that failed recertification
	DuplicatesIgnored   int            `json:"duplicatesIgnored"`   // late/duplicate replies for completed jobs
	RefusalsSeen        int            `json:"refusalsSeen"`        // typed worker refusals
	BreakerRefused      int            `json:"breakerRefused"`      // dispatches blocked by an open breaker
	StallEscapes        int            `json:"stallEscapes"`        // cells forced local by the liveness backstop
	Workers             []WorkerReport `json:"workers"`
}

// WorkerReport is one worker's health summary.
type WorkerReport struct {
	Dispatched int `json:"dispatched"`
	Accepted   int `json:"accepted"`
	Tampered   int `json:"tampered"`
	// Status is the worker's typed terminal health: StatusOK while alive
	// and serving, StatusCanceled for a dead link, StatusTimeout for
	// heartbeat silence (slow), StatusDiverged for a breaker-tripped
	// (refusing) worker.
	Status  guard.Status `json:"status"`
	Breaker string       `json:"breaker"`
	// Error records the link's terminal error, if any (version skew shows
	// up here as the wire.ErrVersion text from the first read).
	Error string `json:"error,omitempty"`
}

// SolveLocal solves the multi-cell problem entirely in-process through the
// identical sweep/ladder/merge code path the distributed coordinator runs —
// it is the single-process reference the determinism suites compare worker
// fan-outs against, not a separate implementation that could drift.
func SolveLocal(mc *MultiCell, o Options) (*MultiResult, error) {
	p := NewPool(nil, PoolOptions{})
	defer p.Close()
	return p.Solve(mc, o)
}

// buildSpec assembles the dispatch spec for one cell of one sweep. The
// budget's deadline is filled at dispatch time (remaining duration), not
// here.
func buildSpec(sweep, cell int, cm *qos.Columns, o Options) *subproblem {
	sp := &subproblem{
		Job:      jobID(sweep, cell),
		Sweep:    uint32(sweep),
		Cell:     uint32(cell),
		MaxNodes: o.MaxNodes,
		IntTol:   o.IntTol,
		GapTol:   o.GapTol,
		IR:       cm.IR,
	}
	if x0, ok := cm.GreedyIncumbent(); ok {
		sp.Incumbent = x0
	}
	return sp
}

// jobID packs (sweep, cell) into a nonzero job id (0 means "idle" in
// heartbeats).
func jobID(sweep, cell int) uint64 {
	return uint64(sweep+1)<<32 | uint64(cell+1)
}

// dispatchBudget derives the per-dispatch budget: the whole-solve monitor's
// remaining wall time (so elapsed time, never clock skew, shrinks it as it
// crosses hosts) plus the per-dispatch eval cap.
func dispatchBudget(mon *guard.Monitor, o Options) guard.Budget {
	b := guard.Budget{MaxEvals: o.Budget.MaxEvals}
	if rem, ok := mon.Remaining(); ok {
		if rem <= 0 {
			rem = time.Nanosecond // expired: a minimal bound keeps the solve typed, not wedged
		}
		b.Deadline = rem
	}
	return b
}
