package serve

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"

	"repro/internal/qos"
)

// Histogram is a lock-free log₂-spaced latency histogram: bucket k holds
// observations in [2ᵏ, 2ᵏ⁺¹) nanoseconds. 64 buckets cover every possible
// duration, Observe is two atomic adds, and quantiles are read from a
// snapshot — accurate to a factor of 2, which is the right resolution for
// "is p99 under the deadline budget" questions (the budgets themselves are
// order-of-magnitude numbers).
type Histogram struct {
	count   atomic.Int64
	buckets [64]atomic.Int64
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	if d < 1 {
		d = 1
	}
	h.buckets[bits.Len64(uint64(d))-1].Add(1)
	h.count.Add(1)
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Quantile returns an upper bound on the q-th quantile (q in [0, 1]): the
// top of the bucket holding the ⌈q·n⌉-th smallest sample. Zero samples
// return 0.
func (h *Histogram) Quantile(q float64) time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(n)))
	if target < 1 {
		target = 1
	}
	var seen int64
	for k := range h.buckets {
		seen += h.buckets[k].Load()
		if seen >= target {
			return time.Duration(uint64(1) << (k + 1)) // bucket upper bound
		}
	}
	return time.Duration(1<<63 - 1) // unreachable: counts raced past n
}

// ClassLatency summarizes one class's solve-latency histogram.
type ClassLatency struct {
	Count int64
	P50   time.Duration
	P99   time.Duration
}

// Stats is a point-in-time snapshot of the server's counters. Admission
// outcomes, response outcomes, fault-recovery counters, and cache health are
// all here so a chaos soak (or an operator) can assert "degraded, not dead"
// from one read.
type Stats struct {
	// Admission.
	Admitted      int64
	ShedRateLimit int64
	ShedQueueFull int64
	ShedDraining  int64
	// Response outcomes.
	Served         int64
	Degraded       int64
	DeadlineMissed int64 // responses whose typed status was a timeout
	Infeasible     int64
	Canceled       int64
	Uncertified    int64
	Errors         int64
	// Fault recovery.
	PanicsRecovered int64
	// Shared solver cache.
	CacheHits   int64
	CacheMisses int64
	// Breakers: rung → current state; Opens counts cumulative trips.
	Breakers     map[qos.Rung]BreakerState
	BreakerOpens int64
	// Latency: per-class solve-latency summaries (classes with traffic).
	Latency map[qos.Class]ClassLatency
}

// counters is the server's live mutable state behind Stats.
type counters struct {
	admitted      atomic.Int64
	shedRateLimit atomic.Int64
	shedQueueFull atomic.Int64
	shedDraining  atomic.Int64

	served         atomic.Int64
	degraded       atomic.Int64
	deadlineMissed atomic.Int64
	infeasible     atomic.Int64
	canceled       atomic.Int64
	uncertified    atomic.Int64
	errors         atomic.Int64

	panics atomic.Int64

	// latency is indexed by qos.Class (1..3); slot 0 absorbs unknowns.
	latency [4]Histogram
}

// hist returns the latency histogram for a class, clamping unknown classes
// into slot 0 so a malformed request can never index out of range.
func (c *counters) hist(cl qos.Class) *Histogram {
	if cl < qos.ClassEMBB || cl > qos.ClassMMTC {
		return &c.latency[0]
	}
	return &c.latency[int(cl)]
}
