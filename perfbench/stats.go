package main

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// nearestRank returns the p-th percentile of sorted by the nearest-rank
// rule: the smallest sample with at least p% of the samples at or below
// it.
func nearestRank(sorted []float64, p float64) float64 {
	return sorted[rankOf(len(sorted), p)-1]
}

// rankOf is the 1-based nearest rank of percentile p among n samples.
func rankOf(n int, p float64) int {
	// The epsilon keeps binary rounding of p (99.9 is not exact) from
	// pushing an exact rank such as 9990 of 10000 up by one.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentiles are the percentiles a tail latency may be reported at,
// highest first.
var tailPercentiles = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie above a reported percentile for
// it to mean anything.
const minBeyond = 10

// tailPercentile picks the highest of tailPercentiles that leaves at
// least minBeyond samples above its nearest rank among n samples. ok is
// false when even the median leaves fewer.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailPercentiles {
		if n-rankOf(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// durationsMs converts durations to float milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// tally is the closed-loop accounting of one run: every operation the
// benchmark issues against the program under test is attempted once and
// ends either succeeded or failed (a transport error, a non-2xx answer
// or a wrong answer). Safe for concurrent use.
type tally struct {
	attempted, succeeded, failed atomic.Int64
}

// record books one finished operation.
func (t *tally) record(ok bool) {
	t.attempted.Add(1)
	if ok {
		t.succeeded.Add(1)
	} else {
		t.failed.Add(1)
	}
}

// errorRate is failed over attempted (0 when nothing was attempted).
func (t *tally) errorRate() float64 {
	a := t.attempted.Load()
	if a == 0 {
		return 0
	}
	return float64(t.failed.Load()) / float64(a)
}
