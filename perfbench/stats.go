package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie beyond a reported tail
// percentile for it to mean anything: a p99 over 200 samples is the second
// largest sample, not a tail estimate.
const minBeyond = 10

// tailPercentiles are the tail levels the benchmark reports, highest first.
var tailPercentiles = []float64{0.999, 0.99, 0.95, 0.9, 0.5}

// highestTail returns the highest level in tailPercentiles that leaves at
// least minBeyond of n samples beyond it, or 0 when even the median does
// not.
func highestTail(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p) >= minBeyond-1e-9 {
			return p
		}
	}
	return 0
}

// quantile returns the nearest-rank p-quantile of xs (p in [0, 1]): the
// smallest sample with at least ⌈p·n⌉ samples at or below it. xs need not
// be sorted; it is not modified. Zero samples give 0.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

// ratio returns num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
