// Command qossolver generates and solves a 5G QoS radio-resource
// allocation instance (the paper's motivating MINLP) with the requested
// solver and prints the allocation and its QoS report as JSON.
//
// Usage:
//
//	qossolver -embb 2 -urllc 1 -mmtc 2 -rbs 8 -solver exact
//	qossolver -solver pso -seed 7
//	qossolver -solver robust -timeout 2s
//
// The exit code reflects the solver's typed termination status so scripts
// can distinguish degraded outcomes without parsing JSON:
//
//	0 converged/optimal · 1 usage or internal error · 2 infeasible ·
//	3 budget exhausted · 4 timeout · 5 canceled · 6 diverged
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/guard"
	"repro/internal/minlp"
	"repro/internal/pso"
	"repro/internal/qos"
	"repro/internal/serve"
)

// output is the JSON document printed on success.
type output struct {
	Solver             string    `json:"solver"`
	Users              int       `json:"users"`
	RBs                int       `json:"rbs"`
	Status             string    `json:"status"`
	UserOf             []int     `json:"userOf"`
	PowerW             []float64 `json:"powerW"`
	TotalRateBps       float64   `json:"totalRateBps"`
	SpectralEfficiency float64   `json:"spectralEfficiencyBpsHz"`
	AllQoSMet          bool      `json:"allQoSMet"`
	RatePerUserBps     []float64 `json:"ratePerUserBps"`
	QoSMet             []bool    `json:"qosMet"`
	Degradation        string    `json:"degradation,omitempty"`
	Note               string    `json:"note,omitempty"`
}

// exitCode maps a typed termination status onto the documented exit codes
// via the shared serve taxonomy, so the CLI and the qosd service agree on
// what every guard.Status means.
func exitCode(st guard.Status) int {
	return serve.OutcomeForStatus(st).ExitCode()
}

func main() {
	st, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "qossolver:", err)
		if s, ok := guard.AsStatus(err); ok {
			os.Exit(exitCode(s))
		}
		os.Exit(1)
	}
	os.Exit(exitCode(st))
}

// run executes one solve and returns the typed termination status alongside
// any hard error (bad flags, invalid instance, internal failure).
func run(args []string) (guard.Status, error) {
	fs := flag.NewFlagSet("qossolver", flag.ContinueOnError)
	embb := fs.Int("embb", 1, "number of eMBB users")
	urllc := fs.Int("urllc", 1, "number of URLLC users")
	mmtc := fs.Int("mmtc", 1, "number of mMTC users")
	rbs := fs.Int("rbs", 6, "number of resource blocks")
	seed := fs.Uint64("seed", 1, "channel seed")
	solver := fs.String("solver", "exact", "solver: greedy | pso | exact | robust")
	timeout := fs.Duration("timeout", 0, "wall-clock budget for the solve (0 = none)")
	if err := fs.Parse(args); err != nil {
		return guard.StatusOK, err
	}
	budget := guard.Budget{Deadline: *timeout}
	p, err := qos.GenerateProblem(*embb, *urllc, *mmtc, *rbs, *seed)
	if err != nil {
		return guard.StatusOK, err
	}
	var alloc *qos.Allocation
	st := guard.StatusConverged
	note := ""
	degradation := ""
	switch *solver {
	case "greedy":
		alloc, err = p.SolveGreedy()
	case "pso":
		var res *pso.Result
		alloc, res, err = p.SolvePSO(pso.Options{Seed: *seed, Swarm: 30, MaxIter: 250,
			Inertia: pso.DefaultAdaptiveInertia(), StagnationWindow: 20, Budget: budget})
		if res != nil {
			st = res.Status
		}
	case "exact":
		var res *minlp.Result
		alloc, res, err = p.SolveExact(minlp.Options{MaxNodes: 300000, Budget: budget})
		if res != nil {
			// One mapping end to end: interruption causes from the budget
			// guard, solver outcomes through the canonical Status→guard table.
			st = res.Guard
			if st == guard.StatusOK {
				st = res.Status.Guard()
			}
			if err == nil && alloc == nil {
				note = "exact solver: " + res.Status.String()
			}
		}
	case "robust":
		var deg *qos.Degradation
		alloc, _, deg, err = p.SolveRobust(qos.RobustOptions{Budget: budget, Seed: *seed,
			PSO: pso.Options{Swarm: 30, MaxIter: 250, Inertia: pso.DefaultAdaptiveInertia(), StagnationWindow: 20}})
		if err == nil {
			degradation = deg.String()
			fmt.Fprintln(os.Stderr, degradation)
			st = deg.Status()
		}
	default:
		return guard.StatusOK, fmt.Errorf("unknown solver %q", *solver)
	}
	if err != nil {
		// Interrupted stochastic runs still carry a typed cause; surface it
		// through the exit code rather than a generic failure.
		if s, ok := guard.AsStatus(err); ok {
			return s, err
		}
		return guard.StatusOK, err
	}
	out := output{Solver: *solver, Users: len(p.Users), RBs: *rbs, Status: st.String(),
		Note: note, Degradation: degradation}
	if alloc != nil {
		rep, err := p.Evaluate(alloc)
		if err != nil {
			return st, err
		}
		out.UserOf = alloc.UserOf
		out.PowerW = alloc.PowerW
		out.TotalRateBps = rep.TotalRateBps
		out.SpectralEfficiency = rep.SpectralEfficiency
		out.AllQoSMet = rep.AllQoSMet
		out.RatePerUserBps = rep.RatePerUser
		out.QoSMet = rep.QoSMet
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return st, err
	}
	return st, nil
}
