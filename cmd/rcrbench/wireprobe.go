package main

// Wire codec probes (DESIGN.md §15). Two single probes time the versioned
// binary codec itself on the qos-shaped MILP the cache persists in practice:
//
//	wire_encode — Problem → frame bytes into a reused wire.Writer
//	wire_decode — frame bytes → Problem decoded into a reused instance
//	  (the steady-state path Load runs per entry; the alloc probes pin
//	  both at 0 allocs/op)

import (
	"repro/internal/prob"
	"repro/internal/wire"
)

// wireProbeSeries builds the codec probes.
func wireProbeSeries(uint64) (probes []probe, cleanup func(), err error) {
	fixed := rraColumnIR()
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

	return []probe{
		{name: "wire_encode", size: n, fn: func() error {
			w.Reset()
			fixed.EncodeWire(w)
			return nil
		}},
		{name: "wire_decode", size: n, fn: func() error {
			_, err := prob.DecodeProblem(frame, into)
			return err
		}},
	}, cleanup, nil
}
