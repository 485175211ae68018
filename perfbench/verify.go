package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/relax"
	"repro/internal/rng"
	"repro/internal/verify"
)

// The verify-exact workload: a closed loop on one goroutine that runs
// seeded random ReLU networks through the relaxed-to-exact verifier
// hierarchy (IBP, CROWN, triangle LP, exact branch and bound).
const (
	verifyEps   = 0.05
	verifySpecD = 0.02
	// verifyMaxNodes caps exact branch and bound. The instance cost is
	// heavy-tailed (a few instances branch to the cap), and the cap bounds
	// how much one instance can move a run's figures.
	verifyMaxNodes = 100
	// verifyOpsPerSecond is how many instances set-up generates per
	// measured second, above the rate the loop reaches; a faster loop
	// starts over from the first instance.
	verifyOpsPerSecond = 120
	// verifyTail is the tail percentile verify-exact reports: a run
	// verifies well over 1000 instances, leaving more than 10 beyond it.
	verifyTail = 0.99
)

// verifyDims are the layer widths of every generated network: 16 hidden
// units per layer keep the node LPs pivot-bound while a run still
// verifies enough instances for a steady tail.
var verifyDims = []int{8, 16, 16, 2}

// verifyInstance is one network, input box and robustness spec.
type verifyInstance struct {
	Net  *verify.Network
	Box  []relax.Interval
	Spec *verify.Spec
}

// randomNet draws an affine/ReLU network with the given layer widths, the
// same distribution the verifier experiments use: weights N(0, 0.7²),
// biases N(0, 0.1²).
func randomNet(r *rng.Rand, dims []int) *verify.Network {
	n := &verify.Network{}
	for l := 0; l+1 < len(dims); l++ {
		layer := verify.AffineLayer{B: make([]float64, dims[l+1])}
		for i := 0; i < dims[l+1]; i++ {
			row := make([]float64, dims[l])
			for j := range row {
				row[j] = r.Norm() * 0.7
			}
			layer.W = append(layer.W, row)
			layer.B[i] = 0.1 * r.Norm()
		}
		n.Layers = append(n.Layers, layer)
	}
	return n
}

// verifyInputs generates n instances from seed. Each spec asks that the
// class the network picks at the box center keeps a margin of verifySpecD
// over the other class everywhere in the box.
func verifyInputs(seed uint64, n int) []verifyInstance {
	r := rng.New(seed)
	out := make([]verifyInstance, n)
	for k := range out {
		net := randomNet(r, verifyDims)
		x := make([]float64, verifyDims[0])
		for i := range x {
			x[i] = r.Norm() * 0.3
		}
		box := verify.BoxAround(x, verifyEps)
		y := net.Forward(append([]float64(nil), x...))
		c := []float64{1, -1}
		if y[1] > y[0] {
			c = []float64{-1, 1}
		}
		out[k] = verifyInstance{Net: net, Box: box, Spec: &verify.Spec{C: c, D: verifySpecD}}
	}
	return out
}

// verifyResult is one instance's four verdicts.
type verifyResult struct {
	IBP, CROWN, Triangle, Exact *verify.Result
	// ExactErr is the exact verifier's error; verify.ErrBudget means
	// undecided within verifyMaxNodes.
	ExactErr error
	// Err is any other verifier error, which fails the operation.
	Err error
}

// verifyOne runs one instance through the hierarchy. With rec non-nil,
// each verifier call runs under its own span below a root span for the
// instance, and the exact verifier's allocation is measured and returned.
func verifyOne(in verifyInstance, rec *recorder, op int) (r verifyResult, exactAllocBytes float64) {
	root := -1
	call := func(name string, f func()) {
		if rec == nil {
			f()
			return
		}
		rec.timed(name, op, root, f)
	}
	if rec != nil {
		root = rec.begin("verify.instance", op, -1)
		defer rec.end(root)
	}
	var err error
	call("verify.ibp", func() { r.IBP, err = verify.VerifyIBP(in.Net, in.Box, in.Spec) })
	if err != nil {
		r.Err = fmt.Errorf("ibp: %w", err)
		return r, 0
	}
	call("verify.crown", func() { r.CROWN, err = verify.VerifyCROWN(in.Net, in.Box, in.Spec) })
	if err != nil {
		r.Err = fmt.Errorf("crown: %w", err)
		return r, 0
	}
	call("verify.triangle", func() { r.Triangle, err = verify.VerifyTriangle(in.Net, in.Box, in.Spec) })
	if err != nil {
		r.Err = fmt.Errorf("triangle: %w", err)
		return r, 0
	}
	var am allocMeter
	if rec != nil {
		am = startAlloc()
	}
	call("verify.exact", func() {
		r.Exact, r.ExactErr = verify.VerifyExact(in.Net, in.Box, in.Spec, verify.ExactOptions{MaxNodes: verifyMaxNodes})
	})
	if rec != nil {
		exactAllocBytes = am.bytes()
	}
	if r.ExactErr != nil && !errors.Is(r.ExactErr, verify.ErrBudget) {
		r.Err = fmt.Errorf("exact: %w", r.ExactErr)
	}
	return r, exactAllocBytes
}

// decided reports whether exact branch and bound reached a verdict.
func (r verifyResult) decided() bool {
	return r.Err == nil && r.ExactErr == nil && r.Exact != nil &&
		(r.Exact.Verdict == verify.VerdictRobust || r.Exact.Verdict == verify.VerdictFalsified)
}

// checkVerify checks one instance's verdicts: a relaxed verifier never
// certifies robust where exact search found a violation, every falsified
// verdict carries a counterexample, and every counterexample violates the
// spec when run through the network.
func checkVerify(o *outcome, op int, in verifyInstance, r verifyResult) {
	if r.Err != nil {
		return // a failed operation, counted separately
	}
	named := []struct {
		name string
		res  *verify.Result
	}{{"ibp", r.IBP}, {"crown", r.CROWN}, {"triangle", r.Triangle}, {"exact", r.Exact}}
	for _, v := range named {
		if v.res == nil {
			continue
		}
		if v.name != "exact" && v.res.Verdict == verify.VerdictRobust && r.decided() && r.Exact.Verdict == verify.VerdictFalsified {
			o.failf("verify: instance %d: %s certifies robust but exact search falsifies", op, v.name)
		}
		if v.res.Verdict == verify.VerdictFalsified && v.res.Counterexample == nil {
			o.failf("verify: instance %d: %s falsifies without a counterexample", op, v.name)
		}
		if cx := v.res.Counterexample; cx != nil {
			if len(cx) != in.Net.InputDim() {
				o.failf("verify: instance %d: %s counterexample has %d inputs", op, v.name, len(cx))
				continue
			}
			if m := in.Spec.Eval(in.Net.Forward(append([]float64(nil), cx...))); !(m < 0) {
				o.failf("verify: instance %d: %s counterexample does not violate the spec (margin %g)", op, v.name, m)
			}
		}
	}
}

// verifyRun is one closed-loop phase.
type verifyRun struct {
	SetupS  float64
	Latency []time.Duration
	Results []verifyResult
	// ExactAllocBytes is, per instance, the exact verifier's allocation;
	// only the traced phase measures it.
	ExactAllocBytes []float64
	Wall            time.Duration
	CPUSeconds      float64
	AllocBytes      float64
}

// verifyPhase generates instances, verifies them one at a time for d, and
// then checks every verdict.
func verifyPhase(o *outcome, seed uint64, d time.Duration, rec *recorder) (*verifyRun, error) {
	n := int(math.Ceil(d.Seconds()*verifyOpsPerSecond)) + 100
	insts, setupS, err := timeSetup(func() ([]verifyInstance, error) {
		return verifyInputs(seed, n), nil
	}, func([]verifyInstance) {})
	if err != nil {
		return nil, err
	}
	run := &verifyRun{SetupS: setupS}
	am, cm := startAlloc(), startCPU()
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		t0 := time.Now()
		res, exactBytes := verifyOne(insts[i%n], rec, i)
		run.Latency = append(run.Latency, time.Since(t0))
		run.Results = append(run.Results, res)
		run.ExactAllocBytes = append(run.ExactAllocBytes, exactBytes)
	}
	run.Wall = time.Since(start)
	run.CPUSeconds = cm.seconds()
	run.AllocBytes = am.bytes()
	if len(run.Results) == 0 {
		return nil, errNoOps
	}
	for i, res := range run.Results {
		if res.Err != nil {
			o.failf("verify: instance %d: %v", i, res.Err)
		}
		checkVerify(o, i, insts[i%n], res)
	}
	return run, nil
}

// failed counts the run's failed operations.
func (run *verifyRun) failed() int {
	f := 0
	for _, r := range run.Results {
		if r.Err != nil {
			f++
		}
	}
	return f
}

// verifyEndToEnd records a phase's end-to-end metrics.
func verifyEndToEnd(o *outcome, run *verifyRun) {
	n := len(run.Results)
	lat := ms(run.Latency)
	decided := 0
	for _, r := range run.Results {
		if r.decided() {
			decided++
		}
	}
	failed := run.failed()
	o.set("setup_s", run.SetupS, setupReps)
	o.setQuantile("latency_p50_ms", lat, 0.5)
	o.setQuantile("latency_tail_ms", lat, verifyTail)
	o.setQuantile("latency_p90_ms", lat, 0.9)
	o.setQuantile("latency_p99_ms", lat, 0.99)
	o.set("throughput_ops_s", ratio(float64(n-failed), run.Wall.Seconds()), n)
	o.set("success_ratio", ratio(float64(decided), float64(n)), n)
	o.set("decided_ratio", ratio(float64(decided), float64(n)), n)
	o.set("failed_ratio", ratio(float64(failed), float64(n)), n)
	o.set("cpu_ms_per_op", 1e3*run.CPUSeconds/float64(n), n)
	o.set("alloc_mb_per_op", run.AllocBytes/float64(n)/(1<<20), n)
}

// runVerify is the verify-exact workload.
func runVerify(cfg config) (*outcome, error) {
	o := newOutcome()
	if !cfg.Trace {
		run, err := verifyPhase(o, cfg.Seed, cfg.duration(), nil)
		if err != nil {
			return nil, err
		}
		o.Attempted, o.Failed = len(run.Results), run.failed()
		verifyEndToEnd(o, run)
		return o, nil
	}
	ref, err := verifyPhase(o, cfg.Seed, cfg.refDuration(), nil)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	run, err := verifyPhase(o, cfg.Seed, cfg.duration(), rec)
	if err != nil {
		return nil, err
	}
	o.Attempted = len(ref.Results) + len(run.Results)
	o.Failed = ref.failed() + run.failed()

	var nodes, lps, exactBytes float64
	for i, r := range run.Results {
		if r.Exact != nil {
			nodes += float64(r.Exact.Nodes)
			lps += float64(r.Exact.LPs)
			exactBytes += run.ExactAllocBytes[i]
		}
	}
	var exactTime time.Duration
	for _, d := range rec.durations("verify.exact") {
		exactTime += d
	}
	n := len(run.Results)
	setSpanQuantile(o, rec, "verify.ibp_us", "verify.ibp", 0.5, time.Microsecond)
	setSpanQuantile(o, rec, "verify.crown_us", "verify.crown", 0.5, time.Microsecond)
	setSpanQuantile(o, rec, "verify.triangle_ms", "verify.triangle", 0.5, time.Millisecond)
	setSpanQuantile(o, rec, "verify.exact_ms", "verify.exact", 0.5, time.Millisecond)
	o.set("verify.exact_nodes", ratio(nodes, float64(n)), n)
	o.set("lp.us_per_lp", ratio(float64(exactTime)/float64(time.Microsecond), lps), int(lps))
	o.set("lp.alloc_kb_per_lp", ratio(exactBytes/1024, lps), int(lps))
	return o, finishTrace(o, cfg, rec, quantile(ms(run.Latency), 0.5), quantile(ms(ref.Latency), 0.5))
}
