package qos

import (
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/guard"
	"repro/internal/prob"
	"repro/internal/pso"
)

func TestSolveRelaxedProducesFeasibleAllocation(t *testing.T) {
	p := smallProblem(t, 3)
	alloc, res, err := p.SolveRelaxed(guard.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Guard != guard.StatusConverged {
		t.Fatalf("relaxed guard = %v", res.Guard)
	}
	rep, err := p.Evaluate(alloc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BudgetViolated {
		t.Fatalf("relaxed+rounded allocation violates power budget")
	}
	// The LP optimum bounds the QoS-feasible discretized optimum; a rounded
	// point that sheds a min-rate constraint may legitimately exceed it, so
	// only compare when the rounding stayed QoS-feasible.
	if rep.AllQoSMet && res.Objective < rep.TotalRateBps-1e-6 {
		t.Fatalf("LP bound %g below rounded QoS-feasible rate %g", res.Objective, rep.TotalRateBps)
	}
	if rep.TotalRateBps <= 0 {
		t.Fatalf("relaxed rung allocated nothing")
	}
}

func TestSolveRobustAcceptsExactWhenFeasible(t *testing.T) {
	p := smallProblem(t, 8) // seed 8 is QoS-feasible (see TestExactRespectsQoS)
	alloc, rep, deg, err := p.SolveRobust(RobustOptions{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if alloc == nil || rep == nil {
		t.Fatalf("robust solve returned nil allocation/report")
	}
	if deg.Final != RungExact || deg.Degraded() {
		t.Fatalf("expected exact rung, got %q (degraded=%v)\n%s", deg.Final, deg.Degraded(), deg)
	}
	if !rep.AllQoSMet {
		t.Fatalf("accepted exact rung without QoS")
	}
	if len(deg.Rungs) != 1 || !deg.Rungs[0].Accepted {
		t.Fatalf("degradation trail = %+v", deg.Rungs)
	}
}

func TestSolveRobustCancelFallsThroughToGreedy(t *testing.T) {
	p := smallProblem(t, 8)
	// Cancellation before the first iteration of every budgeted rung: the
	// ladder must still answer, via greedy, with the trail typed.
	plan := faultinject.Plan{CancelAtIter: 0}
	alloc, rep, deg, err := p.SolveRobust(RobustOptions{Budget: plan.Budget(), Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if alloc == nil || rep == nil {
		t.Fatalf("canceled ladder returned no allocation")
	}
	if deg.Final != RungGreedy {
		t.Fatalf("final rung = %q, want greedy\n%s", deg.Final, deg)
	}
	for _, r := range deg.Rungs[:len(deg.Rungs)-1] {
		if r.Status != guard.StatusCanceled {
			t.Fatalf("rung %s status = %v, want canceled", r.Rung, r.Status)
		}
	}
	for _, v := range alloc.PowerW {
		if !guard.Finite(v) {
			t.Fatalf("non-finite power in degraded allocation")
		}
	}
}

func TestSolveRobustNodeBudgetDegrades(t *testing.T) {
	p := smallProblem(t, 8)
	// One BnB node is not enough to prove optimality or find an integral
	// incumbent beyond the warm start; the ladder must record the exact
	// rung's typed status and still answer.
	alloc, rep, deg, err := p.SolveRobust(RobustOptions{
		MaxNodes: 1,
		Seed:     8,
		PSO:      pso.Options{Swarm: 15, MaxIter: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	if alloc == nil || rep == nil {
		t.Fatalf("degraded ladder returned no allocation")
	}
	if len(deg.Rungs) == 0 || deg.Rungs[0].Rung != RungExact {
		t.Fatalf("trail missing exact rung: %+v", deg.Rungs)
	}
	// The exact rung may still be accepted (greedy warm start can satisfy
	// QoS at node 1); what must hold is a typed, non-zero status.
	if deg.Rungs[0].Status == guard.StatusOK {
		t.Fatalf("exact rung status untyped: %+v", deg.Rungs[0])
	}
}

// TestSolveRobustRungGateSkipsGatedRungs pins the circuit-breaker seam: a
// gate that refuses the exact and relaxed rungs must produce typed
// "skipped: rung gated" reports for both, never run their solvers, and let
// the ladder answer from a lower rung.
func TestSolveRobustRungGateSkipsGatedRungs(t *testing.T) {
	p := smallProblem(t, 8)
	var asked []Rung
	alloc, rep, deg, err := p.SolveRobust(RobustOptions{
		Seed: 8,
		PSO:  pso.Options{Swarm: 15, MaxIter: 60},
		RungGate: func(r Rung) bool {
			asked = append(asked, r)
			return r != RungExact && r != RungRelaxed
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if alloc == nil || rep == nil {
		t.Fatalf("gated ladder returned no allocation")
	}
	if deg.Final == RungExact || deg.Final == RungRelaxed {
		t.Fatalf("gated rung %q was accepted\n%s", deg.Final, deg)
	}
	for _, r := range deg.Rungs {
		if r.Rung != RungExact && r.Rung != RungRelaxed {
			continue
		}
		if r.Status != guard.StatusCanceled || !strings.Contains(r.Detail, "rung gated") {
			t.Fatalf("gated rung %s report = %+v, want canceled/rung gated", r.Rung, r)
		}
		if r.Accepted || r.Attempts != 0 {
			t.Fatalf("gated rung %s ran its solver: %+v", r.Rung, r)
		}
	}
	// Greedy must never be consulted: it is the unconditional floor.
	for _, r := range asked {
		if r == RungGreedy {
			t.Fatalf("RungGate consulted for greedy")
		}
	}
}

// TestSolveRobustGateEverythingStillAnswers: even a gate that refuses every
// rung leaves greedy, which always answers.
func TestSolveRobustGateEverythingStillAnswers(t *testing.T) {
	p := smallProblem(t, 8)
	alloc, rep, deg, err := p.SolveRobust(RobustOptions{
		Seed:     8,
		RungGate: func(Rung) bool { return false },
	})
	if err != nil {
		t.Fatal(err)
	}
	if alloc == nil || rep == nil || deg.Final != RungGreedy {
		t.Fatalf("fully gated ladder: alloc=%v rep=%v final=%q", alloc != nil, rep != nil, deg.Final)
	}
}

// TestSolveRobustTamperRejectedByCertifier pins the corruption seam end to
// end: a Tamper that damages every exact/relaxed backend result must be
// caught by the a-posteriori certifier (rung rejected or degraded, cert
// verdict recorded), and the ladder must still answer from an untampered
// rung — corrupted solver output can degrade service, never forge it.
func TestSolveRobustTamperRejectedByCertifier(t *testing.T) {
	p := smallProblem(t, 8)
	tampered := 0
	alloc, rep, deg, err := p.SolveRobust(RobustOptions{
		Seed: 8,
		PSO:  pso.Options{Swarm: 15, MaxIter: 60},
		Tamper: func(r *prob.Result) {
			if r.X == nil {
				return
			}
			tampered++
			for i := range r.X {
				r.X[i] = 2 // violates the binary column bounds
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tampered == 0 {
		t.Fatal("tamper seam never fired")
	}
	if alloc == nil || rep == nil {
		t.Fatalf("tampered ladder returned no allocation")
	}
	if deg.Final == RungExact || deg.Final == RungRelaxed {
		t.Fatalf("a tampered certified rung was accepted: final=%q\n%s", deg.Final, deg)
	}
	for _, r := range deg.Rungs {
		if (r.Rung == RungExact || r.Rung == RungRelaxed) && r.Accepted {
			t.Fatalf("tampered rung %s accepted: %+v", r.Rung, r)
		}
	}
}

func TestDegradationString(t *testing.T) {
	d := &Degradation{
		Rungs: []RungReport{
			{Rung: RungExact, Status: guard.StatusMaxIter, Detail: "3 nodes"},
			{Rung: RungGreedy, Status: guard.StatusConverged, Accepted: true, TotalRateBps: 4.2e6, AllQoSMet: true},
		},
		Final: RungGreedy,
	}
	s := d.String()
	for _, want := range []string{"exact", "budget-exhausted", "greedy", "final rung: greedy", "degraded=true", "4.20 Mbps"} {
		if !strings.Contains(s, want) {
			t.Fatalf("degradation string missing %q:\n%s", want, s)
		}
	}
}

// TestDegradationStatus pins the ladder's verdict: Converged when the exact
// rung was accepted — even from an incumbent its timed-out search left
// behind — and otherwise the accepted rung's typed cause, whatever the
// rejected rungs before it reported.
func TestDegradationStatus(t *testing.T) {
	rejected := func(r Rung, st guard.Status) RungReport { return RungReport{Rung: r, Status: st, Attempts: 1} }
	accepted := func(r Rung, st guard.Status) RungReport {
		return RungReport{Rung: r, Status: st, Attempts: 1, Accepted: true, AllQoSMet: st == guard.StatusConverged}
	}
	cases := []struct {
		name  string
		rungs []RungReport
		want  guard.Status
	}{
		{"exact", []RungReport{accepted(RungExact, guard.StatusConverged)}, guard.StatusConverged},
		{"exact from timed-out incumbent", []RungReport{
			{Rung: RungExact, Status: guard.StatusTimeout, Attempts: 1, Accepted: true, AllQoSMet: true},
		}, guard.StatusConverged},
		{"relaxed", []RungReport{
			rejected(RungExact, guard.StatusMaxIter),
			accepted(RungRelaxed, guard.StatusConverged),
		}, guard.StatusConverged},
		{"pso", []RungReport{
			rejected(RungExact, guard.StatusTimeout),
			rejected(RungRelaxed, guard.StatusDiverged),
			accepted(RungPSO, guard.StatusConverged),
		}, guard.StatusConverged},
		{"greedy", []RungReport{
			rejected(RungExact, guard.StatusMaxIter),
			rejected(RungRelaxed, guard.StatusDiverged),
			rejected(RungPSO, guard.StatusDiverged),
			accepted(RungGreedy, guard.StatusConverged),
		}, guard.StatusConverged},
		{"greedy with QoS shortfall", []RungReport{
			{Rung: RungExact, Status: guard.StatusCanceled, Detail: "skipped: rung gated"},
			{Rung: RungRelaxed, Status: guard.StatusTimeout, Detail: "skipped: ladder budget exhausted"},
			{Rung: RungPSO, Status: guard.StatusTimeout, Detail: "skipped: ladder budget exhausted"},
			accepted(RungGreedy, guard.StatusInfeasible),
		}, guard.StatusInfeasible},
		{"empty trail", nil, guard.StatusDiverged},
	}
	for _, c := range cases {
		d := &Degradation{Rungs: c.rungs}
		if n := len(c.rungs); n > 0 {
			d.Final = c.rungs[n-1].Rung
		}
		if got := d.Status(); got != c.want {
			t.Errorf("%s: Status() = %v, want %v\n%s", c.name, got, c.want, d)
		}
	}
}
