package main

// Wire codec probes (DESIGN.md §15). Two single probes time the versioned
// binary codec itself on the qos-shaped MILP the cache persists in practice:
//
//	wire_encode — Problem → frame bytes into a reused wire.Writer
//	wire_decode — frame bytes → Problem decoded into a reused instance
//	  (the steady-state path Load runs per entry; the alloc probes pin
//	  both at 0 allocs/op)
//
// The cache_cold_solve / cache_warm_restart pair times the snapshot restart
// path: one side solves a burst of requests with no cache at all, the other
// restores a snapshot from disk (decode, re-lower, re-certify) and serves
// the same burst through it. The restored cache carries its incumbent, so
// the pair measures the incumbent-carrying cache; qosd runs its cache
// forms-only (DisableWarmStarts), and its own restart gain is unmeasured.
// The pair self-gates — a warm restart that fails to beat cold solves fails
// the baseline capture and `rcrbench -check` outright, the same contract as
// the qosd_urllc_p99 latency gate — so the persistence layer cannot quietly
// decay into overhead.

import (
	"errors"
	"fmt"
	"os"

	"repro/internal/guard"
	"repro/internal/prob"
	"repro/internal/rng"
	"repro/internal/wire"
)

// wireRestartSolves is the burst each side of the restart pair serves: the
// snapshot amortizes its load cost (decode + re-lower + recertify, ~100µs)
// over the burst, matching how a restarted qosd immediately sees repeat
// traffic. At 4 solves the load cost roughly cancels the cached-solve win on
// this host, so the pair uses a burst deep enough for the payoff to clear
// run-to-run noise.
const wireRestartSolves = 16

// wireProbeSeries builds the codec probes and the restart pair. The pair's
// warm side loads the snapshot under dir, which cleanup removes.
func wireProbeSeries(seed uint64) (probes []probe, cleanup func(), err error) {
	fixed := rraColumnIR(rng.New(seed+2), 0)
	n := fixed.NumVars

	// The writer stays checked out for the probe's lifetime: the encode
	// closure reuses it every call, so it must not return to the pool here.
	w := wire.GetWriter()
	cleanup = func() { wire.PutWriter(w) }
	fixed.EncodeWire(w)
	frame := append([]byte(nil), w.Bytes()...)
	into := &prob.Problem{}
	if _, err := prob.DecodeProblem(frame, into); err != nil {
		return nil, cleanup, err
	}

	probes = []probe{
		{name: "wire_encode", size: n, fn: func() error {
			w.Reset()
			fixed.EncodeWire(w)
			return nil
		}},
		{name: "wire_decode", size: n, fn: func() error {
			_, err := prob.DecodeProblem(frame, into)
			return err
		}},
	}

	// The fixed snapshot the warm side restarts from: solve once, dump.
	dir, err := os.MkdirTemp("", "rcrbench-wire-")
	if err != nil {
		return nil, cleanup, err
	}
	releaseWriter := cleanup
	cleanup = func() { os.RemoveAll(dir); releaseWriter() }
	seedCache := prob.NewCache()
	solved := func(res *prob.Result, err error) error {
		if err != nil {
			return err
		}
		if res.Status != guard.StatusConverged {
			return fmt.Errorf("wire probe solve ended %v", res.Status)
		}
		return nil
	}
	if err := solved(prob.Solve(fixed, prob.Options{Cache: seedCache})); err != nil {
		return nil, cleanup, err
	}
	if _, err := seedCache.Snapshot(dir); err != nil {
		return nil, cleanup, err
	}

	coldSide := func() error {
		for i := 0; i < wireRestartSolves; i++ {
			if err := solved(prob.Solve(fixed, prob.Options{})); err != nil {
				return err
			}
		}
		return nil
	}
	warmSide := func() error {
		c := prob.NewCache()
		st, err := c.Load(dir)
		if err != nil {
			return err
		}
		if st.Recertified != 1 {
			return fmt.Errorf("restart loaded %+v, want 1 recertified incumbent", st)
		}
		for i := 0; i < wireRestartSolves; i++ {
			if err := solved(prob.Solve(fixed, prob.Options{Cache: c})); err != nil {
				return err
			}
		}
		return nil
	}
	probes = append(probes, probe{name: "cache_cold_solve", nameB: "cache_warm_restart", size: n,
		fn: coldSide, fnB: warmSide, gate: restartPays})
	return probes, cleanup, nil
}

// restartPays is the restart pair's self-gate: a snapshot restart that
// loses to cold solves on the same burst is a defect, not a data point.
func restartPays(nsCold, nsWarm float64) error {
	if nsWarm >= nsCold {
		return errors.New("warm restart does not pay")
	}
	return nil
}
