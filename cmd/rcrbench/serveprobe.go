package main

// Service-level probes for the qosd allocation service (internal/serve,
// DESIGN.md §14). Unlike the kernel probes these time the full request path
// — admission, queueing, batching, ladder, certification — because the
// service's robustness promises are about request latency, not solver FLOPs:
//
//	qosd_throughput — a coalesced burst of mMTC requests through the worker
//	  pool under the default per-batch budget; ns/op is the wall cost of one
//	  burst, so sustained batched throughput is burstSize / (ns_per_op · 1e-9)
//	  solves per second.
//	qosd_urllc_p99 — single URLLC requests against a deliberately heavy
//	  instance under the default 10 ms deadline budget. Without the watchdog
//	  the exact rung would run this instance far past the deadline; the probe
//	  fails itself when its own p99 exceeds 4x the budget, proving tail
//	  latency is bounded by the deadline plus fallback time. (The gate uses
//	  the service's log₂ histogram, so the 4x slack absorbs one bucket of
//	  granularity and shared-host noise; a broken watchdog overshoots it by
//	  an order of magnitude.)
//	qosd_shed_latency — the typed-shed fast path under a closed admission
//	  gate; ns/op is the cost of telling one client "no" during overload,
//	  which must stay far below a solve so shedding actually sheds load.
//
// The servers live for the process's lifetime (a bench run), so the probe
// closures pay no setup cost per call.

import (
	"fmt"

	"repro/internal/qos"
	"repro/internal/serve"
)

// serveProbeSeries builds the qosd probe set.
func serveProbeSeries(seed uint64) ([]probe, func(), error) {
	small, err := qos.GenerateProblem(1, 1, 1, 5, seed)
	if err != nil {
		return nil, nil, err
	}
	// Heavy enough that an unbudgeted exact solve runs well past the URLLC
	// deadline — the p99 gate below is only meaningful if the watchdog has
	// something to cut short.
	heavy, err := qos.GenerateProblem(2, 1, 2, 8, seed)
	if err != nil {
		return nil, nil, err
	}

	const burst = 8
	mmtcSrv := serve.New(serve.Config{})
	throughput := func() error {
		chans := make([]<-chan serve.Response, burst)
		for i := 0; i < burst; i++ {
			chans[i] = mmtcSrv.Submit(serve.Request{Class: qos.ClassMMTC, Problem: small, Seed: seed + uint64(i)})
		}
		for i, ch := range chans {
			resp := <-ch
			if resp.Outcome != serve.OutcomeServed && resp.Outcome != serve.OutcomeDegraded {
				return fmt.Errorf("throughput burst member %d: outcome %v (%v)", i, resp.Outcome, resp.Err)
			}
		}
		return nil
	}

	urllcSrv := serve.New(serve.Config{})
	deadline := serve.DefaultBudgets()[qos.ClassURLLC].Deadline
	urllcP99 := func() error {
		resp := urllcSrv.Do(serve.Request{Class: qos.ClassURLLC, Problem: heavy, Seed: seed})
		if resp.Alloc == nil {
			return fmt.Errorf("URLLC request lost its allocation: outcome %v (%v)", resp.Outcome, resp.Err)
		}
		// Stats() costs microseconds against a ~10 ms solve, so reading the
		// service's own histogram every call does not distort the timing.
		if st := urllcSrv.Stats(); st.Latency[qos.ClassURLLC].Count >= 16 {
			if p99 := st.Latency[qos.ClassURLLC].P99; p99 > 4*deadline {
				return fmt.Errorf("URLLC p99 %v exceeds 4x the %v deadline budget — watchdog not bounding tail latency", p99, deadline)
			}
		}
		return nil
	}

	// An admission gate that opened once and will not refill within any
	// realistic probe run: after one primer solve, every request sheds.
	shedSrv := serve.New(serve.Config{AdmitRate: 1e-12, AdmitBurst: 1})
	if resp := shedSrv.Do(serve.Request{Class: qos.ClassEMBB, Problem: small, Seed: seed}); resp.Outcome == serve.OutcomeShed {
		return nil, nil, fmt.Errorf("shed probe primer was shed; bucket should start full")
	}
	shed := func() error {
		resp := shedSrv.Do(serve.Request{Class: qos.ClassEMBB, Problem: small, Seed: seed})
		if resp.Outcome != serve.OutcomeShed {
			return fmt.Errorf("closed admission gate let a request through: %v", resp.Outcome)
		}
		return nil
	}

	return []probe{
		{name: "qosd_throughput", size: burst, fn: throughput},
		{name: "qosd_urllc_p99", size: len(heavy.Users), fn: urllcP99},
		{name: "qosd_shed_latency", size: 1, fn: shed},
	}, nil, nil
}
