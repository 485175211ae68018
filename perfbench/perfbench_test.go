package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/guard"
	"repro/internal/qos"
	"repro/internal/serve"
	"repro/internal/verify"
	"repro/internal/wire"
)

func TestHighestTailLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{10000, 0.999},
		{1000, 0.99},
		{999, 0.95},
		{200, 0.95},
		{199, 0.9},
		{100, 0.9},
		{99, 0.5},
		{20, 0.5},
		{19, 0},
		{0, 0},
	}
	for _, c := range cases {
		if got := highestTail(c.n); got != c.want {
			t.Errorf("highestTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0, 1}, {1, 10}} {
		if got := quantile(xs, c.p); got != c.want {
			t.Errorf("quantile(p=%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
}

func TestTooFewSamplesBeyondAPercentileIsFlagged(t *testing.T) {
	o := newOutcome()
	o.setQuantile("latency_tail_ms", make([]float64, 500), 0.99)
	o.setQuantile("latency_p50_ms", make([]float64, 500), 0.5)
	var buf bytes.Buffer
	if err := emit(&buf, "w", false, o); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var tail, p50 string
	for _, l := range lines[:len(lines)-1] { // the last line is the JSON result
		if strings.Contains(l, "latency_tail_ms") {
			tail = l
		}
		if strings.Contains(l, "latency_p50_ms") {
			p50 = l
		}
	}
	if !strings.Contains(tail, "too few samples") || !strings.Contains(tail, "p95") {
		t.Errorf("p99 over 500 samples not flagged: %q", tail)
	}
	if strings.Contains(p50, "too few") {
		t.Errorf("p50 over 500 samples flagged: %q", p50)
	}
}

// TestOpenLoopCountsStallFromDueTime stalls the first request of a
// single-threaded handler: every later request was due while the handler
// was stuck, and its latency must include that wait, not just its own
// service time.
func TestOpenLoopCountsStallFromDueTime(t *testing.T) {
	const stall = 120 * time.Millisecond
	due := make([]time.Duration, 8)
	for i := range due {
		due[i] = time.Duration(i) * 10 * time.Millisecond
	}
	queue := make(chan chan struct{}, len(due))
	handlerDone := make(chan struct{})
	go func() {
		defer close(handlerDone)
		first := true
		for reply := range queue {
			if first {
				time.Sleep(stall)
				first = false
			}
			close(reply)
		}
	}()
	lt := openLoop(due, func(i int) func() {
		reply := make(chan struct{})
		queue <- reply
		return func() { <-reply }
	})
	close(queue)
	<-handlerDone
	for i := range due {
		if min := stall - due[i]; lt.Latency[i] < min {
			t.Errorf("request %d latency %v, want at least %v (stall measured from its due time)", i, lt.Latency[i], min)
		}
		if lt.Done[i] < stall {
			t.Errorf("request %d done at %v, before the stall ended", i, lt.Done[i])
		}
	}
	if lt.Wall < stall {
		t.Errorf("wall %v shorter than the stall", lt.Wall)
	}
}

func TestSelfTimeAndCoverage(t *testing.T) {
	rec := newRecorder()
	at := func(ms int) time.Time { return rec.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := rec.add("root", 0, -1, at(0), at(100))
	rec.add("a", 0, root, at(10), at(30))
	rec.add("b", 0, root, at(20), at(50))  // overlaps a: counted once
	rec.add("c", 0, root, at(90), at(120)) // runs past the root: clipped
	rec.add("lone", 1, -1, at(0), at(40))  // no children: not in coverage
	byName := map[string]selfTime{}
	for _, s := range rec.selfTimes() {
		byName[s.Name] = s
	}
	if got := byName["root"].Self; got != 50*time.Millisecond {
		t.Errorf("root self time %v, want 50ms", got)
	}
	if got := byName["a"].Self; got != 20*time.Millisecond {
		t.Errorf("leaf self time %v, want its duration 20ms", got)
	}
	if got := rec.coverage(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("coverage %g, want 0.5", got)
	}
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range registry {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %q / unit %q breaks the naming rules", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %q registered twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
	}
	var e2e, layer []metricDef
	for _, d := range registry {
		switch d.Kind {
		case kindEndToEnd:
			e2e = append(e2e, d)
		case kindLayer:
			layer = append(layer, d)
		}
	}
	if len(b.EndToEnd) != len(e2e) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, registry %d", len(b.EndToEnd), len(e2e))
	}
	for i, m := range b.EndToEnd {
		d := e2e[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, registry %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if e2e[0].Name != "setup_s" || e2e[0].Unit != "s" || e2e[0].Better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s", e2e[0])
	}
	for _, d := range e2e {
		if d.Bound > e2e[0].Bound {
			t.Errorf("%s bound %g exceeds setup_s's %g", d.Name, d.Bound, e2e[0].Bound)
		}
	}
	if len(b.PerLayer) != len(layer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, registry %d", len(b.PerLayer), len(layer))
	}
	for i, m := range b.PerLayer {
		d := layer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, registry %+v", i, m, d)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		wl, ok := workloads[w.Name]
		if !ok {
			t.Errorf("BENCHMARK.json workload %q is not runnable", w.Name)
			continue
		}
		if w.Why != wl.Why {
			t.Errorf("workload %q: why differs between BENCHMARK.json and the benchmark", w.Name)
		}
	}
}

// fullOutcome returns an outcome with every registered metric set.
func fullOutcome() *outcome {
	o := newOutcome()
	for _, d := range registry {
		o.set(d.Name, 1, 1)
	}
	o.Attempted = 1
	return o
}

func TestFailedCheckExitsNonZero(t *testing.T) {
	for _, failing := range []bool{false, true} {
		wl := workload{Run: func(config) (*outcome, error) {
			o := fullOutcome()
			if failing {
				o.failf("planted wrong output")
			}
			return o, nil
		}}
		var out, errb bytes.Buffer
		code := execute(config{Workload: "test", Workers: 1}, wl, &out, &errb)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not the result: %v", err)
		}
		if failing && (code == 0 || res.Correct) {
			t.Errorf("failed check: exit %d, correct %v; want non-zero and false", code, res.Correct)
		}
		if !failing && (code != 0 || !res.Correct) {
			t.Errorf("clean run: exit %d, correct %v; want 0 and true", code, res.Correct)
		}
	}
}

func TestUnregisteredMetricFailsTheRun(t *testing.T) {
	o := newOutcome()
	o.setQuantile("no_such_metric", []float64{1}, 0.5)
	if len(o.Checks) != 1 || len(o.Metrics) != 0 {
		t.Errorf("checks %v, metrics %v", o.Checks, o.Metrics)
	}
}

func TestResultLineCarriesExactlyTheSelectedKind(t *testing.T) {
	for _, traced := range []bool{false, true} {
		var out bytes.Buffer
		if err := emit(&out, "w", traced, fullOutcome()); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		want := kindEndToEnd
		if traced {
			want = kindLayer
		}
		n := 0
		for _, d := range registry {
			if d.Kind != want {
				continue
			}
			n++
			if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("traced=%v: %s missing or with unit %q", traced, d.Name, m.Unit)
			}
		}
		if len(res.Metrics) != n {
			t.Errorf("traced=%v: %d metrics in the result line, want %d", traced, len(res.Metrics), n)
		}
	}
}

func TestBadArgsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "verify-exact", "--trace", "2"},
		{"--workload", "verify-exact", "--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("%v printed a result: %q", args, out.String())
		}
	}
}

func TestInputsAreSeeded(t *testing.T) {
	a, err := qosdInputs(7, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := qosdInputs(7, 3*time.Second)
	c, _ := qosdInputs(8, 3*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Error("qosd inputs differ for one seed")
	}
	if reflect.DeepEqual(a.Reqs, c.Reqs) {
		t.Error("qosd inputs equal for two seeds")
	}
	if n, want := len(a.Reqs), int(math.Round(3*qosdRate)); n != want {
		t.Errorf("%d requests in 3s at %g req/s, want %d", n, qosdRate, want)
	}
	for i := 1; i < len(a.Reqs); i++ {
		if a.Reqs[i].Due < a.Reqs[i-1].Due || a.Reqs[i].Due >= 3*time.Second {
			t.Fatalf("request %d due at %v after %v", i, a.Reqs[i].Due, a.Reqs[i-1].Due)
		}
	}
	if len(a.Problems) >= len(a.Reqs) || len(a.Problems) < len(a.Reqs)/2 {
		t.Errorf("%d problems for %d requests: want most but not all requests to bring their own", len(a.Problems), len(a.Reqs))
	}

	d1, err := distInputs(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := distInputs(7, 3)
	if !reflect.DeepEqual(d1, d2) {
		t.Error("dist inputs differ for one seed")
	}
	if !reflect.DeepEqual(verifyInputs(7, 3), verifyInputs(7, 3)) {
		t.Error("verify inputs differ for one seed")
	}
	if reflect.DeepEqual(verifyInputs(7, 3), verifyInputs(8, 3)) {
		t.Error("verify inputs equal for two seeds")
	}
}

func TestQosdCheckCatchesBadAllocations(t *testing.T) {
	in, err := qosdInputs(3, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	in.Reqs = in.Reqs[:2]
	p := in.Problems[in.Reqs[0].Prob]
	greedy, err := p.SolveGreedy()
	if err != nil {
		t.Fatal(err)
	}
	over := qos.NewAllocation(p.Inst.Params.NumRBs)
	for rb := range over.UserOf {
		over.UserOf[rb] = 0
		over.PowerW[rb] = p.Levels[len(p.Levels)-1]
	}
	good := &qosdRun{In: in, Resps: []serve.Response{
		{ID: 0, Outcome: serve.OutcomeDegraded, Alloc: greedy},
		{ID: 1, Outcome: serve.OutcomeShed},
	}}
	o := newOutcome()
	checkQosd(o, good)
	if len(o.Checks) != 0 {
		t.Fatalf("clean responses failed: %v", o.Checks)
	}
	for name, bad := range map[string]*qosdRun{
		"over budget":  {In: in, Resps: []serve.Response{{ID: 0, Outcome: serve.OutcomeDegraded, Alloc: over}, good.Resps[1]}},
		"untyped":      {In: in, Resps: []serve.Response{good.Resps[0], {ID: 1, Outcome: serve.Outcome(42)}}},
		"wrong id":     {In: in, Resps: []serve.Response{{ID: 1, Outcome: serve.OutcomeShed}, good.Resps[1]}},
		"panic":        {In: in, Resps: good.Resps, Stats: serve.Stats{PanicsRecovered: 1}},
		"served empty": {In: in, Resps: []serve.Response{{ID: 0, Outcome: serve.OutcomeServed}, good.Resps[1]}},
	} {
		o := newOutcome()
		checkQosd(o, bad)
		if len(o.Checks) == 0 {
			t.Errorf("%s: check passed", name)
		}
	}
}

func TestDistCheckCatchesAFlippedBit(t *testing.T) {
	insts, err := distInputs(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := dist.SolveLocal(insts[0].MC, insts[0].Opts)
	if err != nil {
		t.Fatal(err)
	}
	wp, err := startPool(2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := wp.pool.Solve(insts[0].MC, insts[0].Opts)
	if errs := wp.close(); len(errs) != 0 {
		t.Errorf("workers ended with %v", errs)
	}
	if err != nil {
		t.Fatal(err)
	}
	run := &distRun{Insts: insts, Results: []*dist.MultiResult{got}}
	o := newOutcome()
	checkDist(o, run, []*dist.MultiResult{ref})
	if len(o.Checks) != 0 {
		t.Fatalf("fan-out differs from the local reference: %v", o.Checks)
	}
	cell := got.Cells[0].Alloc
	for rb := range cell.PowerW {
		if cell.PowerW[rb] > 0 {
			cell.PowerW[rb] = math.Float64frombits(math.Float64bits(cell.PowerW[rb]) ^ 1)
			break
		}
	}
	o = newOutcome()
	checkDist(o, run, []*dist.MultiResult{ref})
	if len(o.Checks) == 0 {
		t.Error("a flipped power bit passed the bit-identity check")
	}
}

// TestDistReplayMirrorsTheCoordinator checks the traced replay against
// the real thing: replaying both sweeps cell by cell must end on the
// allocations dist.SolveLocal merged.
func TestDistReplayMirrorsTheCoordinator(t *testing.T) {
	// The replay mirrors converged cells only (a degraded cell's fallback
	// ladder is not replayed), so take the first instance that converges.
	insts, err := distInputs(9, 10)
	if err != nil {
		t.Fatal(err)
	}
	var in distInstance
	var ref *dist.MultiResult
	for _, cand := range insts {
		res, err := dist.SolveLocal(cand.MC, cand.Opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status == guard.StatusConverged {
			in, ref = cand, res
			break
		}
	}
	if ref == nil {
		t.Fatal("no instance converged")
	}
	rec := newRecorder()
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	var allocs []*qos.Allocation
	for sweep := 0; sweep < distSweeps; sweep++ {
		interf := interference(in.MC, allocs)
		next := make([]*qos.Allocation, len(in.MC.Cells))
		for c := range in.MC.Cells {
			cs, err := replayCell(rec, w, 0, -1, foldCell(in.MC, c, interf), in.Opts.Budget)
			if err != nil {
				t.Fatal(err)
			}
			next[c] = cs.Alloc
		}
		allocs = next
	}
	for c, a := range allocs {
		if !reflect.DeepEqual(a, ref.Cells[c].Alloc) {
			t.Errorf("cell %d: replay %+v, coordinator %+v", c, a, ref.Cells[c].Alloc)
		}
	}
}

func TestVerifyCheckCatchesWrongVerdicts(t *testing.T) {
	insts := verifyInputs(11, 40)
	var robust, falsified = -1, -1
	results := make([]verifyResult, len(insts))
	for i, in := range insts {
		r, _ := verifyOne(in, nil, i)
		if r.Err != nil {
			t.Fatalf("instance %d: %v", i, r.Err)
		}
		o := newOutcome()
		checkVerify(o, i, in, r)
		if len(o.Checks) != 0 {
			t.Fatalf("instance %d: clean verdicts failed: %v", i, o.Checks)
		}
		results[i] = r
		if r.decided() && r.Exact.Verdict == verify.VerdictRobust && robust < 0 {
			robust = i
		}
		if r.decided() && r.Exact.Verdict == verify.VerdictFalsified && falsified < 0 {
			falsified = i
		}
	}
	if robust < 0 || falsified < 0 {
		t.Fatalf("want one robust and one falsified instance, got %d and %d", robust, falsified)
	}

	// A relaxed verifier claiming robust where exact search falsified.
	r := results[falsified]
	ibp := *r.IBP
	ibp.Verdict, ibp.Counterexample = verify.VerdictRobust, nil
	r.IBP = &ibp
	o := newOutcome()
	checkVerify(o, falsified, insts[falsified], r)
	if len(o.Checks) == 0 {
		t.Error("an unsound relaxed verdict passed")
	}

	// A counterexample that satisfies the spec: the center of a box the
	// exact search proved robust.
	r = results[robust]
	ex := *r.Exact
	ex.Verdict = verify.VerdictFalsified
	for _, iv := range insts[robust].Box {
		ex.Counterexample = append(ex.Counterexample, 0.5*(iv.Lo+iv.Hi))
	}
	r.Exact = &ex
	o = newOutcome()
	checkVerify(o, robust, insts[robust], r)
	if len(o.Checks) == 0 {
		t.Error("a counterexample that satisfies the spec passed")
	}
}

func TestEveryWorkloadRunsEndToEnd(t *testing.T) {
	for name := range workloads {
		for _, trace := range []string{"0", "1"} {
			var out, errb bytes.Buffer
			code := run([]string{"--workload", name, "--seed", "3", "--seconds", "0.4", "--trace", trace, "--trace-dir", t.TempDir()}, &out, &errb)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d: %s", name, trace, code, errb.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s trace=%s: result %+v", name, trace, res)
			}
			if trace == "0" && res.Metrics["latency_p50_ms"].Value <= 0 {
				t.Errorf("%s: latency_p50_ms %v", name, res.Metrics["latency_p50_ms"])
			}
			if c := res.Metrics["trace.coverage"].Value; trace == "1" && (c < 0.5 || c > 1) {
				t.Errorf("%s: trace coverage %g", name, c)
			}
		}
	}
}
