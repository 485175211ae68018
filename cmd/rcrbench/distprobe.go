package main

// Distributed solve probes (DESIGN.md §16). The dist_local_solve /
// dist_fanout_4w pair is the payoff-and-correctness claim behind the
// coordinator/worker fan-out: one side runs the multi-cell solve in
// process, the other fans the same instance out over four in-process pipe
// workers. The fan-out side re-checks bit-identity against the local
// reference on every iteration, so the pair self-gates on correctness —
// a merge that drifts from the local bits fails the baseline capture and
// `rcrbench -check` outright, as a qosd_urllc_p99 tail past its bound does.
//
// The speed side of the gate is core-aware. Fan-out buys wall time only
// when cells can actually solve concurrently, so with GOMAXPROCS > 1 the
// fan-out must beat the local solve; on a single-core host the claim
// degrades to bounded coordination overhead — dispatch, transport framing,
// recertification, and merge may cost at most distOverheadFactor over the
// local solve.
//
// dist_dead_worker_recovery times the survival ladder end to end: a fresh
// two-worker pool whose first worker dies after one job, solved to a
// certified answer through re-dispatch and local fallback. It rides the
// ordinary checkFactor gate, keeping recovery from quietly growing a stall.

import (
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"time"

	"repro/internal/dist"
	"repro/internal/guard"
)

// distOverheadFactor bounds fan-out coordination overhead on hosts where
// concurrency cannot pay (GOMAXPROCS == 1): the fan-out side may cost at
// most this multiple of the local solve.
const distOverheadFactor = 1.5

// distPool spawns n in-process pipe workers and wraps them in a pool, the
// same transport topology the dist tests and the rcrworker smoke use.
func distPool(n int, wo func(i int) dist.WorkerOptions, po dist.PoolOptions) *dist.Pool {
	conns := make([]io.ReadWriteCloser, n)
	for i := 0; i < n; i++ {
		c1, c2 := net.Pipe()
		conns[i] = c1
		go func(c net.Conn, o dist.WorkerOptions) {
			defer c.Close()
			_ = dist.ServeWorker(c, c, o)
		}(c2, wo(i))
	}
	return dist.NewPool(conns, po)
}

// distSameBits reports whether two multi-cell results carry identical
// per-cell allocations and typed statuses.
func distSameBits(want, got *dist.MultiResult) error {
	if got.Status != want.Status || len(got.Cells) != len(want.Cells) {
		return fmt.Errorf("merged status/shape diverged: %v/%d vs %v/%d",
			got.Status, len(got.Cells), want.Status, len(want.Cells))
	}
	for i := range want.Cells {
		w, g := want.Cells[i], got.Cells[i]
		if g.Alloc == nil || g.Status != w.Status ||
			!reflect.DeepEqual(g.Alloc.UserOf, w.Alloc.UserOf) ||
			!reflect.DeepEqual(g.Alloc.PowerW, w.Alloc.PowerW) {
			return fmt.Errorf("cell %d diverged from the local reference", i)
		}
	}
	return nil
}

// distProbeSeries builds the fan-out pair and the recovery probe. The
// four-worker pool stays up for the pair's lifetime (workers are reused
// across iterations, as a long-lived deployment would); cleanup tears it
// down.
func distProbeSeries(seed uint64) (probes []probe, cleanup func(), err error) {
	mc, err := dist.GenerateMultiCell(3, 1, 1, 1, 5, 1.0, seed)
	if err != nil {
		return nil, nil, err
	}
	opts := dist.Options{Seed: seed}

	want, err := dist.SolveLocal(mc, opts)
	if err != nil {
		return nil, nil, err
	}
	if want.Status != guard.StatusConverged {
		return nil, nil, fmt.Errorf("dist probe reference did not certify: %v", want.Status)
	}

	pool := distPool(4, func(i int) dist.WorkerOptions {
		return dist.WorkerOptions{Name: fmt.Sprintf("bench-%d", i), HeartbeatEvery: 50 * time.Millisecond}
	}, dist.PoolOptions{DeadAfter: 5 * time.Second})

	localSide := func() error {
		got, err := dist.SolveLocal(mc, opts)
		if err != nil {
			return err
		}
		return distSameBits(want, got)
	}
	fanoutSide := func() error {
		got, err := pool.Solve(mc, opts)
		if err != nil {
			return err
		}
		if err := distSameBits(want, got); err != nil {
			return err
		}
		if got.Stats.RemoteAccepted == 0 {
			return fmt.Errorf("fan-out accepted no remote results — the pair timed the fallback ladder, not the fan-out")
		}
		return nil
	}
	return []probe{
		{name: "dist_dead_worker_recovery", size: len(mc.Cells), fn: func() error {
			p := distPool(2, func(i int) dist.WorkerOptions {
				if i == 0 {
					return dist.WorkerOptions{DieAfterJobs: 1}
				}
				return dist.WorkerOptions{HeartbeatEvery: 20 * time.Millisecond}
			}, dist.PoolOptions{})
			defer p.Close()
			got, err := p.Solve(mc, opts)
			if err != nil {
				return err
			}
			return distSameBits(want, got)
		}},
		{name: "dist_local_solve", nameB: "dist_fanout_4w", size: len(mc.Cells),
			fn: localSide, fnB: fanoutSide, gate: fanoutPays},
	}, pool.Close, nil
}

// fanoutPays is the fan-out pair's core-aware self-gate described at the
// top of this file.
func fanoutPays(nsLocal, nsFanout float64) error {
	if procs := runtime.GOMAXPROCS(0); procs > 1 {
		if nsFanout >= nsLocal {
			return fmt.Errorf("fan-out does not pay at GOMAXPROCS=%d", procs)
		}
	} else if nsFanout > nsLocal*distOverheadFactor {
		return fmt.Errorf("fan-out coordination overhead exceeds %.1fx on a single core", distOverheadFactor)
	}
	return nil
}
