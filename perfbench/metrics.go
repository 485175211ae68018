package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// metricKind says where a metric is reported.
type metricKind int

const (
	// kindEndToEnd metrics are what a user of the system sees. Every
	// workload reports every one of them in the untraced run's JSON line,
	// and BENCHMARK.json gates each with a bound.
	kindEndToEnd metricKind = iota
	// kindLayer metrics come from the traced run and describe one layer.
	// Every workload reports every one; a layer the workload never calls
	// reads 0.
	kindLayer
	// kindReport metrics are end-to-end numbers that only some workloads
	// define (URLLC latency exists only where there are service classes).
	// They are printed in the report lines with their sample count but are
	// not part of the JSON line.
	kindReport
)

// metricDef declares one metric. Bound is the share by which an
// end-to-end metric may worsen against the parent's median.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Kind   metricKind
}

// registry lists every metric the benchmark prints. BENCHMARK.json's
// end_to_end and per_layer arrays must list exactly the kindEndToEnd and
// kindLayer entries, in this order (checked by TestRegistryMatchesBenchmarkJSON).
//
// The bounds follow the run-to-run spread measured over ten seeds per
// workload on a shared 2-vCPU VM (quartile distance over median): the
// timing metrics get the largest allowed bound, the success ratios 0.1.
// CPU and allocation per operation are report lines: on qosd-open the
// wall-clock class deadlines make them follow the host's speed, and they
// spread past any allowed bound there.
var registry = []metricDef{
	{"setup_s", "s", "lower", 0.25, kindEndToEnd},
	{"latency_p50_ms", "ms", "lower", 0.25, kindEndToEnd},
	{"latency_tail_ms", "ms", "lower", 0.25, kindEndToEnd},
	{"throughput_ops_s", "ops/s", "higher", 0.25, kindEndToEnd},
	{"success_ratio", "fraction", "higher", 0.1, kindEndToEnd},

	{"cpu_ms_per_op", "ms", "lower", 0, kindReport},
	{"alloc_mb_per_op", "MB", "lower", 0, kindReport},
	{"all_latency_p50_ms", "ms", "lower", 0, kindReport},
	{"latency_p90_ms", "ms", "lower", 0, kindReport},
	{"latency_p99_ms", "ms", "lower", 0, kindReport},
	{"urllc_latency_p50_ms", "ms", "lower", 0, kindReport},
	{"urllc_latency_p95_ms", "ms", "lower", 0, kindReport},
	{"served_ratio", "fraction", "higher", 0, kindReport},
	{"slo_ratio", "fraction", "higher", 0, kindReport},
	{"decided_ratio", "fraction", "higher", 0, kindReport},
	{"failed_ratio", "fraction", "lower", 0, kindReport},

	{"serve.urllc_busy_p50_ms", "ms", "lower", 0, kindLayer},
	{"serve.urllc_busy_p99_ms", "ms", "lower", 0, kindLayer},
	{"serve.urllc_wait_p50_ms", "ms", "lower", 0, kindLayer},
	{"serve.urllc_wait_p95_ms", "ms", "lower", 0, kindLayer},
	{"serve.shed", "count", "lower", 0, kindLayer},
	{"serve.deadline_missed", "count", "lower", 0, kindLayer},
	{"serve.breaker_opens", "count", "lower", 0, kindLayer},
	{"qos.final_exact_ratio", "fraction", "higher", 0, kindLayer},
	{"qos.final_relaxed_ratio", "fraction", "lower", 0, kindLayer},
	{"qos.final_pso_ratio", "fraction", "lower", 0, kindLayer},
	{"qos.final_greedy_ratio", "fraction", "lower", 0, kindLayer},
	{"qos.ladder_ms_p50", "ms", "lower", 0, kindLayer},
	{"qos.column_model_us", "us", "lower", 0, kindLayer},
	{"prob.fingerprint_us", "us", "lower", 0, kindLayer},
	{"prob.lower_us", "us", "lower", 0, kindLayer},
	{"prob.compile_us", "us", "lower", 0, kindLayer},
	{"prob.certify_us", "us", "lower", 0, kindLayer},
	{"prob.cache_hit_ratio", "fraction", "higher", 0, kindLayer},
	{"minlp.nodes_per_solve", "count", "lower", 0, kindLayer},
	{"minlp.us_per_node", "us", "lower", 0, kindLayer},
	{"minlp.alloc_kb_per_node", "KB", "lower", 0, kindLayer},
	{"lp.relaxed_lp_us", "us", "lower", 0, kindLayer},
	{"lp.us_per_lp", "us", "lower", 0, kindLayer},
	{"lp.alloc_kb_per_lp", "KB", "lower", 0, kindLayer},
	{"wire.encode_us", "us", "lower", 0, kindLayer},
	{"wire.decode_us", "us", "lower", 0, kindLayer},
	{"wire.subproblem_bytes", "bytes", "lower", 0, kindLayer},
	{"wire.result_bytes", "bytes", "lower", 0, kindLayer},
	{"dist.local_solve_ms", "ms", "lower", 0, kindLayer},
	{"dist.fanout_over_local", "ratio", "lower", 0, kindLayer},
	{"dist.cell_solve_ms_p50", "ms", "lower", 0, kindLayer},
	{"dist.cell_solve_ms_p90", "ms", "lower", 0, kindLayer},
	{"dist.remote_accepted_ratio", "fraction", "higher", 0, kindLayer},
	{"dist.dispatches_per_cell", "count", "lower", 0, kindLayer},
	{"dist.hedged", "count/op", "lower", 0, kindLayer},
	{"dist.redispatched", "count/op", "lower", 0, kindLayer},
	{"dist.local_fallback", "count/op", "lower", 0, kindLayer},
	{"dist.duplicates_ignored", "count/op", "lower", 0, kindLayer},
	{"verify.ibp_us", "us", "lower", 0, kindLayer},
	{"verify.crown_us", "us", "lower", 0, kindLayer},
	{"verify.triangle_ms", "ms", "lower", 0, kindLayer},
	{"verify.exact_ms", "ms", "lower", 0, kindLayer},
	{"verify.exact_nodes", "count", "lower", 0, kindLayer},
	{"bench.gen_late_p95_ms", "ms", "lower", 0, kindLayer},
	{"trace.coverage", "fraction", "higher", 0, kindLayer},
	{"trace.overhead_ratio", "ratio", "lower", 0, kindLayer},
}

// lookup returns the registry entry for name.
func lookup(name string) (metricDef, bool) {
	for _, d := range registry {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// sample is one measured metric value and the number of samples behind
// it. Pct is the percentile a latency metric reports, 0 for others.
type sample struct {
	Value float64
	N     int
	Pct   float64
}

// outcome is everything one run measured and checked.
type outcome struct {
	Attempted int
	Failed    int
	// Checks lists every failed output check; any entry makes the run
	// incorrect and the process exit non-zero.
	Checks  []string
	Metrics map[string]sample
	// Selfs is the traced run's per-span-name self-time table.
	Selfs []selfTime
}

func newOutcome() *outcome { return &outcome{Metrics: map[string]sample{}} }

// set records a metric. A name outside the registry is a defect in the
// benchmark itself; it fails the run instead of going unreported.
func (o *outcome) set(name string, v float64, n int) {
	if _, ok := lookup(name); !ok {
		o.failf("perfbench: metric %s is not registered", name)
		return
	}
	o.Metrics[name] = sample{Value: v, N: n}
}

// setQuantile records the nearest-rank p-quantile of xs as a metric.
func (o *outcome) setQuantile(name string, xs []float64, p float64) {
	o.set(name, quantile(xs, p), len(xs))
	if s, ok := o.Metrics[name]; ok {
		s.Pct = p
		o.Metrics[name] = s
	}
}

// failf records a failed output check.
func (o *outcome) failf(format string, args ...any) {
	o.Checks = append(o.Checks, fmt.Sprintf(format, args...))
}

// jsonMetric is one entry of the result line's metrics object.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// emit prints the report lines (every measured metric with unit and sample
// count, then the self-time table when traced) followed by the JSON result
// line, which carries the end-to-end metrics untraced and the per-layer
// metrics traced. Metrics of the selected kind that the workload left
// unset read 0: the workload does not call that layer.
func emit(w io.Writer, workload string, traced bool, o *outcome) error {
	want := kindEndToEnd
	if traced {
		want = kindLayer
	}
	for _, d := range registry {
		s, ok := o.Metrics[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-14s %-28s %14.6g %-9s n=%d", workload, d.Name, s.Value, d.Unit, s.N)
		if s.Pct > 0 {
			// The percentile rule: a tail level needs minBeyond samples
			// beyond it; say so when this run had too few.
			beyond := int(float64(s.N) * (1 - s.Pct))
			fmt.Fprintf(w, " p%g beyond=%d", 100*s.Pct, beyond)
			if highestTail(s.N) < s.Pct {
				fmt.Fprintf(w, " (too few samples: the highest reportable level is p%g)", 100*highestTail(s.N))
			}
		}
		fmt.Fprintln(w)
	}
	if len(o.Selfs) > 0 {
		fmt.Fprintf(w, "%-14s %-22s %8s %12s %12s\n", "span", "name", "count", "total_ms", "self_ms")
		for _, st := range o.Selfs {
			fmt.Fprintf(w, "%-14s %-22s %8d %12.3f %12.3f\n", workload, st.Name, st.Count,
				float64(st.Total.Microseconds())/1e3, float64(st.Self.Microseconds())/1e3)
		}
	}
	for _, c := range o.Checks {
		fmt.Fprintf(w, "%-14s CHECK FAILED: %s\n", workload, strings.TrimSpace(c))
	}
	line := resultLine{
		Correct:   len(o.Checks) == 0,
		Attempted: o.Attempted,
		Failed:    o.Failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, d := range registry {
		if d.Kind != want {
			continue
		}
		v := o.Metrics[d.Name].Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
		line.Metrics[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
