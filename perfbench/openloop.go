package main

import (
	"sync"
	"time"
)

// loopTimes is what an open loop measured. All instants are offsets from
// the loop's start.
type loopTimes struct {
	// Start is the wall-clock instant the offsets below count from.
	Start time.Time
	// Latency[i] runs from request i's due time to its reply, so time a
	// request spent queued behind a stalled one counts against it, and
	// time the generator itself ran late counts too.
	Latency []time.Duration
	// Late[i] is how long after its due time request i was actually sent.
	Late []time.Duration
	// Done[i] is when request i's reply arrived.
	Done []time.Duration
	// Wall runs from the start to the last reply.
	Wall time.Duration
}

// openLoop sends request i at offset due[i] from the loop's start,
// whatever state earlier requests are in. send(i) must hand the request
// over without waiting for its reply and return a function that blocks
// until the reply arrives. openLoop returns once every reply has arrived.
func openLoop(due []time.Duration, send func(i int) (wait func())) loopTimes {
	n := len(due)
	lt := loopTimes{
		Latency: make([]time.Duration, n),
		Late:    make([]time.Duration, n),
		Done:    make([]time.Duration, n),
	}
	var wg sync.WaitGroup
	start := time.Now()
	lt.Start = start
	for i, d := range due {
		if w := d - time.Since(start); w > 0 {
			time.Sleep(w)
		}
		lt.Late[i] = time.Since(start) - d
		wait := send(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			wait()
			lt.Done[i] = time.Since(start)
		}()
	}
	wg.Wait()
	for i := range due {
		lt.Latency[i] = lt.Done[i] - due[i]
		lt.Wall = max(lt.Wall, lt.Done[i])
	}
	return lt
}
