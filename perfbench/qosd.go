package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/guard"
	"repro/internal/prob"
	"repro/internal/pso"
	"repro/internal/qos"
	"repro/internal/rng"
	"repro/internal/serve"
)

// The qosd-open workload: seeded Poisson arrivals at a fixed rate into one
// serve.Server with the default configuration, so workers, queues and the
// per-class wall-clock budgets are what qosd ships with.
const (
	// qosdRate is the offered load in requests per second. Under the
	// wall-clock class deadlines, hard instances hold a worker for the whole
	// deadline; at 50 req/s the queue then swings from run to run, and at
	// 30 req/s it stays steady enough to gate.
	qosdRate = 30.0
	// qosdRepeat is the share of requests that re-send the previous
	// request's problem (a follow-up for the same channel state), so the
	// server's forms cache gets hits; every other request brings a problem
	// of its own, so no handful of instances sets a run's figures.
	qosdRepeat = 0.25
	// qosdSLOSlack scales each class's default deadline into the latency
	// limit slo_ratio counts against.
	qosdSLOSlack = 4
	// qosdTail is the tail percentile qosd-open reports. The mMTC batches
	// that run to their shared 250 ms deadline form a cluster of a few
	// percent of requests at the top; p95 sat on its lower edge and moved
	// from 192 to 260 ms between seeds, p97 sits inside it. At qosdRate
	// over a run of 30 s it leaves 27 samples beyond it.
	qosdTail = 0.97
	// qosdReplayStride: the traced mode replays every URLLC request (the
	// queue-wait estimate needs them all) and every qosdReplayStride-th
	// other request, which bounds the traced run's length.
	qosdReplayStride = 3
)

// servePSO is serve.Config's default PSO rung, which the traced replay of
// the ladder must use to solve what the server solved.
var servePSO = pso.Options{Swarm: 15, MaxIter: 60}

// qosdReq is one generated request.
type qosdReq struct {
	Due   time.Duration
	Class qos.Class
	Prob  int
	Seed  uint64
}

// qosdInput is the generated problem set and arrival schedule.
type qosdInput struct {
	Problems []*qos.Problem
	Reqs     []qosdReq
}

// qosdInputs generates the workload's inputs for a measured phase of
// length d: Poisson arrivals at qosdRate conditioned on their count
// (round(qosdRate·d) arrival times drawn uniformly over the phase), each
// with a uniformly drawn class, a request seed, and a problem of qosd's
// default size. The same seed gives the same inputs.
func qosdInputs(seed uint64, d time.Duration) (*qosdInput, error) {
	r := rng.New(seed)
	n := int(math.Round(qosdRate * d.Seconds()))
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(r.Float64() * float64(d))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	classes := []qos.Class{qos.ClassEMBB, qos.ClassURLLC, qos.ClassMMTC}
	in := &qosdInput{Reqs: make([]qosdReq, n)}
	for i := range in.Reqs {
		req := qosdReq{Due: due[i], Class: classes[r.Intn(len(classes))], Seed: r.Uint64()}
		if i > 0 && r.Float64() < qosdRepeat {
			req.Prob = in.Reqs[i-1].Prob
		} else {
			p, err := qos.GenerateProblem(1, 1, 1, 6, r.Uint64())
			if err != nil {
				return nil, fmt.Errorf("request %d problem: %w", i, err)
			}
			req.Prob = len(in.Problems)
			in.Problems = append(in.Problems, p)
		}
		in.Reqs[i] = req
	}
	return in, nil
}

// qosdRun is one open-loop phase against a fresh server.
type qosdRun struct {
	SetupS     float64
	In         *qosdInput
	Resps      []serve.Response
	Times      loopTimes
	Stats      serve.Stats
	CPUSeconds float64
	AllocBytes float64
}

// qosdPhase sets up inputs and a server, drives the open loop for d, and
// closes the server once every reply is in.
func qosdPhase(seed uint64, d time.Duration) (*qosdRun, error) {
	type state struct {
		in  *qosdInput
		srv *serve.Server
	}
	st, setupS, err := timeSetup(func() (state, error) {
		in, err := qosdInputs(seed, d)
		if err != nil {
			return state{}, err
		}
		return state{in: in, srv: serve.New(serve.Config{})}, nil
	}, func(s state) { s.srv.Close() })
	if err != nil {
		return nil, err
	}
	defer st.srv.Close()
	in := st.in
	if len(in.Reqs) == 0 {
		return nil, errNoOps
	}
	due := make([]time.Duration, len(in.Reqs))
	for i, r := range in.Reqs {
		due[i] = r.Due
	}
	resps := make([]serve.Response, len(in.Reqs))
	am, cm := startAlloc(), startCPU()
	lt := openLoop(due, func(i int) func() {
		r := in.Reqs[i]
		ch := st.srv.Submit(serve.Request{ID: uint64(i), Class: r.Class, Problem: in.Problems[r.Prob], Seed: r.Seed})
		return func() { resps[i] = <-ch }
	})
	run := &qosdRun{SetupS: setupS, In: in, Resps: resps, Times: lt, CPUSeconds: cm.seconds(), AllocBytes: am.bytes()}
	run.Stats = st.srv.Stats()
	return run, nil
}

// qosdFailed reports a response the client did not get an answer from:
// shed, rejected as an error, uncertified (which includes a recovered
// panic), or canceled.
func qosdFailed(r serve.Response) bool {
	switch r.Outcome {
	case serve.OutcomeShed, serve.OutcomeError, serve.OutcomeUncertified, serve.OutcomeCanceled:
		return true
	}
	return false
}

// checkQosd verifies a phase's outputs: every response is typed and
// answers its own request, the server recovered no panic and returned
// nothing uncertified or erroneous, and every returned allocation,
// re-scored against its problem, stays within the power budget (and meets
// every QoS contract when the response claims it was served).
func checkQosd(o *outcome, run *qosdRun) {
	for i, r := range run.Resps {
		if r.ID != uint64(i) {
			o.failf("qosd: request %d answered with id %d", i, r.ID)
		}
		if r.Outcome < serve.OutcomeServed || r.Outcome > serve.OutcomeDegraded {
			o.failf("qosd: request %d has untyped outcome %v", i, r.Outcome)
		}
		if r.Outcome == serve.OutcomeServed && r.Alloc == nil {
			o.failf("qosd: request %d served without an allocation", i)
		}
		if r.Alloc == nil {
			continue
		}
		p := run.In.Problems[run.In.Reqs[i].Prob]
		rep, err := p.Evaluate(r.Alloc)
		if err != nil {
			o.failf("qosd: request %d allocation does not score: %v", i, err)
			continue
		}
		if rep.BudgetViolated {
			o.failf("qosd: request %d allocation exceeds the power budget", i)
		}
		if r.Outcome == serve.OutcomeServed && !rep.AllQoSMet {
			o.failf("qosd: request %d served but misses a QoS contract on re-scoring", i)
		}
	}
	if s := run.Stats; s.PanicsRecovered != 0 || s.Uncertified != 0 || s.Errors != 0 {
		o.failf("qosd: server stats report %d panics, %d uncertified, %d errors", s.PanicsRecovered, s.Uncertified, s.Errors)
	}
}

// qosdEndToEnd records the phase's end-to-end metrics.
func qosdEndToEnd(o *outcome, run *qosdRun) {
	n := len(run.Resps)
	lat := ms(run.Times.Latency)
	var urllc []float64
	served, inSLO, failed := 0, 0, 0
	budgets := serve.DefaultBudgets()
	for i, r := range run.Resps {
		cl := run.In.Reqs[i].Class
		if cl == qos.ClassURLLC {
			urllc = append(urllc, lat[i])
		}
		if qosdFailed(r) {
			failed++
			continue
		}
		if r.Outcome == serve.OutcomeServed {
			served++
		}
		if r.Alloc != nil && run.Times.Latency[i] <= qosdSLOSlack*budgets[cl].Deadline {
			inSLO++
		}
	}
	o.set("setup_s", run.SetupS, setupReps)
	// The median is the URLLC one: URLLC is a third of the traffic, so the
	// all-class median sits on the edge between the URLLC mode and the
	// slower eMBB/mMTC solves, and moved by 40% from seed to seed.
	o.setQuantile("latency_p50_ms", urllc, 0.5)
	o.setQuantile("all_latency_p50_ms", lat, 0.5)
	o.setQuantile("latency_tail_ms", lat, qosdTail)
	o.setQuantile("latency_p90_ms", lat, 0.9)
	o.setQuantile("latency_p99_ms", lat, 0.99)
	o.setQuantile("urllc_latency_p50_ms", urllc, 0.5)
	o.setQuantile("urllc_latency_p95_ms", urllc, 0.95)
	o.set("throughput_ops_s", ratio(float64(n-failed), run.Times.Wall.Seconds()), n)
	o.set("success_ratio", ratio(float64(inSLO), float64(n)), n)
	o.set("served_ratio", ratio(float64(served), float64(n)), n)
	o.set("slo_ratio", ratio(float64(inSLO), float64(n)), n)
	o.set("failed_ratio", ratio(float64(failed), float64(n)), n)
	o.set("cpu_ms_per_op", 1e3*run.CPUSeconds/float64(n), n)
	o.set("alloc_mb_per_op", run.AllocBytes/float64(n)/(1<<20), n)
}

// count adds the phase's operations to the outcome's totals.
func (run *qosdRun) count(o *outcome) {
	o.Attempted += len(run.Resps)
	for _, r := range run.Resps {
		if qosdFailed(r) {
			o.Failed++
		}
	}
}

// runQosd is the qosd-open workload.
func runQosd(cfg config) (*outcome, error) {
	o := newOutcome()
	if !cfg.Trace {
		run, err := qosdPhase(cfg.Seed, cfg.duration())
		if err != nil {
			return nil, err
		}
		checkQosd(o, run)
		run.count(o)
		qosdEndToEnd(o, run)
		return o, nil
	}
	// The traced mode first runs an untraced reference phase of half the
	// length from the same seed, so the tracing overhead is measured in the
	// same process.
	ref, err := qosdPhase(cfg.Seed, cfg.refDuration())
	if err != nil {
		return nil, err
	}
	checkQosd(o, ref)
	ref.count(o)
	run, err := qosdPhase(cfg.Seed, cfg.duration())
	if err != nil {
		return nil, err
	}
	checkQosd(o, run)
	run.count(o)
	if err := qosdLayers(o, cfg, run, quantile(ms(ref.Times.Latency), 0.5)); err != nil {
		return nil, err
	}
	return o, nil
}

// qosdLayers records the traced phase's per-layer metrics. serve exposes
// no stage boundaries, so each request's span is its open-loop interval,
// and the layers under it are measured by replaying sampled requests'
// inputs through each layer's public functions, one at a time, under a
// replay span of the same operation id.
func qosdLayers(o *outcome, cfg config, run *qosdRun, refP50 float64) error {
	rec := newRecorder()
	for i, r := range run.In.Reqs {
		rec.add("qosd.request", i, -1, run.Times.Start.Add(r.Due), run.Times.Start.Add(run.Times.Done[i]))
	}
	cache := prob.NewCache().DisableWarmStarts()
	budgets := serve.DefaultBudgets()
	var wait []float64
	var nodes, nodeBytes float64
	var nodeTime time.Duration
	solves := 0
	for i, r := range run.In.Reqs {
		if r.Class != qos.ClassURLLC && i%qosdReplayStride != 0 {
			continue
		}
		p := run.In.Problems[r.Prob]
		b := budgets[r.Class]
		root := rec.begin("qosd.replay", i, -1)
		var err error
		ladder := rec.timed("qos.ladder", i, root, func() {
			_, _, _, err = p.SolveRobust(qos.RobustOptions{Budget: b, Seed: r.Seed, Cache: cache, PSO: servePSO})
		})
		if err != nil {
			return fmt.Errorf("replay %d ladder: %w", i, err)
		}
		if r.Class == qos.ClassURLLC {
			wait = append(wait, float64(run.Times.Latency[i]-ladder)/float64(time.Millisecond))
		}
		st, err := replayColumnSolve(rec, i, root, p, b)
		if err != nil {
			return fmt.Errorf("replay %d: %w", i, err)
		}
		rec.end(root)
		nodes += float64(st.Nodes)
		nodeTime += st.Time
		nodeBytes += st.AllocBytes
		solves++
	}

	n := len(run.Resps)
	s := run.Stats
	urllc := s.Latency[qos.ClassURLLC]
	o.set("serve.urllc_busy_p50_ms", float64(urllc.P50)/float64(time.Millisecond), int(urllc.Count))
	o.set("serve.urllc_busy_p99_ms", float64(urllc.P99)/float64(time.Millisecond), int(urllc.Count))
	o.setQuantile("serve.urllc_wait_p50_ms", wait, 0.5)
	o.setQuantile("serve.urllc_wait_p95_ms", wait, 0.95)
	o.set("serve.shed", float64(s.ShedRateLimit+s.ShedQueueFull+s.ShedDraining), n)
	o.set("serve.deadline_missed", float64(s.DeadlineMissed), n)
	o.set("serve.breaker_opens", float64(s.BreakerOpens), n)
	rungs := map[qos.Rung]int{}
	for _, r := range run.Resps {
		rungs[r.Rung]++
	}
	o.set("qos.final_exact_ratio", ratio(float64(rungs[qos.RungExact]), float64(n)), n)
	o.set("qos.final_relaxed_ratio", ratio(float64(rungs[qos.RungRelaxed]), float64(n)), n)
	o.set("qos.final_pso_ratio", ratio(float64(rungs[qos.RungPSO]), float64(n)), n)
	o.set("qos.final_greedy_ratio", ratio(float64(rungs[qos.RungGreedy]), float64(n)), n)
	setSpanQuantile(o, rec, "qos.ladder_ms_p50", "qos.ladder", 0.5, time.Millisecond)
	setColumnLayers(o, rec)
	setSpanQuantile(o, rec, "lp.relaxed_lp_us", "lp.relaxed_solve", 0.5, time.Microsecond)
	o.set("prob.cache_hit_ratio", ratio(float64(s.CacheHits), float64(s.CacheHits+s.CacheMisses)), int(s.CacheHits+s.CacheMisses))
	o.set("minlp.nodes_per_solve", ratio(nodes, float64(solves)), solves)
	o.set("minlp.us_per_node", ratio(float64(nodeTime)/float64(time.Microsecond), nodes), int(nodes))
	o.set("minlp.alloc_kb_per_node", ratio(nodeBytes/1024, nodes), int(nodes))
	o.setQuantile("bench.gen_late_p95_ms", ms(run.Times.Late), 0.95)
	return finishTrace(o, cfg, rec, quantile(ms(run.Times.Latency), 0.5), refP50)
}

// columnSolve is what one replayed column-MILP solve measured.
type columnSolve struct {
	Nodes      int
	Time       time.Duration
	AllocBytes float64
}

// replayColumnSolve replays the exact rung's path for problem p under one
// parent span: build the column model, fingerprint, lower (the Eq. 7
// integrality drop the relaxed rung applies), compile the MILP, take the
// greedy incumbent, solve the MILP under budget b with certification off,
// solve the small relaxed LP, and recertify the MILP answer.
func replayColumnSolve(rec *recorder, op, parent int, p *qos.Problem, b guard.Budget) (columnSolve, error) {
	var cs columnSolve
	var cm *qos.Columns
	var err error
	rec.timed("qos.column_model", op, parent, func() { cm, err = p.ColumnModel() })
	if err != nil {
		return cs, err
	}
	rec.timed("prob.fingerprint", op, parent, func() { _ = cm.IR.Fingerprint() })
	var relaxed *prob.Problem
	rec.timed("prob.lower", op, parent, func() { relaxed, _, err = prob.RelaxIntegrality(cm.IR) })
	if err != nil {
		return cs, fmt.Errorf("lower: %w", err)
	}
	rec.timed("prob.compile", op, parent, func() { _, err = cm.IR.MILP() })
	if err != nil {
		return cs, fmt.Errorf("compile: %w", err)
	}
	var x0 []float64
	rec.timed("qos.greedy_incumbent", op, parent, func() { x0, _ = cm.GreedyIncumbent() })
	var res *prob.Result
	am := startAlloc()
	cs.Time = rec.timed("minlp.solve", op, parent, func() {
		res, err = prob.Solve(cm.IR, prob.Options{Budget: b, MaxNodes: 20000, Incumbent: x0, Cert: prob.CertConfig{Disable: true}})
	})
	cs.AllocBytes = am.bytes()
	// A budget-stopped solve returns its partial result with a typed
	// error; only a solve that returns no result at all is a failure.
	if res == nil {
		return cs, fmt.Errorf("column solve: %w", err)
	}
	if res.MILP != nil {
		cs.Nodes = res.MILP.Nodes
	}
	var lpRes *prob.Result
	rec.timed("lp.relaxed_solve", op, parent, func() { lpRes, err = prob.Solve(relaxed, prob.Options{Budget: b}) })
	if lpRes == nil {
		return cs, fmt.Errorf("relaxed solve: %w", err)
	}
	if res.Status == guard.StatusConverged {
		rec.timed("prob.certify", op, parent, func() { err = prob.Recertify(cm.IR, res) })
		if err != nil {
			return cs, fmt.Errorf("certify: %w", err)
		}
	}
	return cs, nil
}

// setSpanQuantile records the q-quantile of the named spans' durations in
// the given unit.
func setSpanQuantile(o *outcome, rec *recorder, metric, span string, q float64, unit time.Duration) {
	ds := rec.durations(span)
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	o.set(metric, quantile(xs, q), len(xs))
}

// setColumnLayers records the medians of the column-model front-end spans.
func setColumnLayers(o *outcome, rec *recorder) {
	setSpanQuantile(o, rec, "qos.column_model_us", "qos.column_model", 0.5, time.Microsecond)
	setSpanQuantile(o, rec, "prob.fingerprint_us", "prob.fingerprint", 0.5, time.Microsecond)
	setSpanQuantile(o, rec, "prob.lower_us", "prob.lower", 0.5, time.Microsecond)
	setSpanQuantile(o, rec, "prob.compile_us", "prob.compile", 0.5, time.Microsecond)
	setSpanQuantile(o, rec, "prob.certify_us", "prob.certify", 0.5, time.Microsecond)
}

// finishTrace records the trace's own metrics, attaches the self-time
// table and writes the spans out (unless cfg.TraceDir is empty).
func finishTrace(o *outcome, cfg config, rec *recorder, tracedP50, untracedP50 float64) error {
	o.set("trace.coverage", rec.coverage(), len(rec.spans))
	o.set("trace.overhead_ratio", ratio(tracedP50, untracedP50), 2)
	o.Selfs = rec.selfTimes()
	if cfg.TraceDir == "" {
		return nil
	}
	return rec.write(cfg.TraceDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.Workload, cfg.Seed))
}
