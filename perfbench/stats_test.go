package main

import (
	"math"
	"sync"
	"testing"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 10, ok: false}, // even the median leaves 5 beyond
		{n: 20, want: 50, ok: true},
		{n: 40, want: 75, ok: true},
		{n: 100, want: 90, ok: true},
		{n: 999, want: 95, ok: true}, // p99 is rank 990: only 9 beyond
		{n: 1000, want: 99, ok: true},
		{n: 9999, want: 99, ok: true},
		{n: 10000, want: 99.9, ok: true},
		{n: 100000, want: 99.99, ok: true},
	} {
		p, ok := tailPercentile(tc.n)
		if ok != tc.ok || (ok && p != tc.want) {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, p, ok, tc.want, tc.ok)
			continue
		}
		if ok {
			if beyond := tc.n - rankOf(tc.n, p); beyond < minBeyond {
				t.Errorf("n=%d p%v leaves %d samples beyond", tc.n, p, beyond)
			}
		}
	}
}

func TestNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := nearestRank(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := nearestRank(xs, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if got := nearestRank([]float64{7}, 99.9); got != 7 {
		t.Errorf("p99.9 of one sample = %v, want 7", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if xs[0] != 4 {
		t.Error("median reordered its input")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

// TestTallyClosedLoopAccounting checks that every recorded operation is
// attempted exactly once and ends succeeded or failed, also when the
// connections of a closed loop record concurrently.
func TestTallyClosedLoopAccounting(t *testing.T) {
	var tl tally
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tl.record((i+c)%7 != 0)
			}
		}(c)
	}
	wg.Wait()
	a, s, f := tl.attempted.Load(), tl.succeeded.Load(), tl.failed.Load()
	if a != 4000 || a != s+f {
		t.Fatalf("attempted %d, succeeded %d, failed %d: want 4000 = succeeded + failed", a, s, f)
	}
	var want int64
	for c := 0; c < 4; c++ {
		for i := 0; i < 1000; i++ {
			if (i+c)%7 == 0 {
				want++
			}
		}
	}
	if f != want {
		t.Errorf("failed = %d, want %d", f, want)
	}
	if got := tl.errorRate(); got != float64(want)/4000 {
		t.Errorf("errorRate = %v", got)
	}
	var empty tally
	if empty.errorRate() != 0 {
		t.Error("error rate of an empty tally is not 0")
	}
}
