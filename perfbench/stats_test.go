package main

import (
	"testing"
	"time"
)

// The highest reportable percentile is the highest one with at least ten
// samples beyond it.
func TestHighestReportable(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0},
		{19, 0},   // p50: rank 10, only 9 beyond
		{20, 50},  // p50: rank 10, 10 beyond
		{99, 50},  // p90: rank 90, 9 beyond
		{100, 90}, // p90: rank 90, 10 beyond
		{999, 90}, // p99: rank 990, 9 beyond
		{1000, 99},
		{9999, 99},
		{10000, 99.9},
		{100000, 99.99},
	}
	for _, c := range cases {
		if got := highestReportable(c.n); got != c.want {
			t.Errorf("highestReportable(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileInterpolatesInsideBucket(t *testing.T) {
	// 300µs lies in the bucket [299008ns, 303104ns) of width 4096ns.
	lo, hi := bucketOf(300 * time.Microsecond)
	if lo != 299008 || hi != 303104 {
		t.Fatalf("bucketOf(300µs) = [%d, %d)", lo, hi)
	}
	build := func(tied, above int) *latencies {
		l := &latencies{}
		for i := 0; i < tied; i++ {
			l.add(300 * time.Microsecond)
		}
		for i := 0; i < above; i++ {
			l.add(time.Millisecond + time.Duration(i))
		}
		return l
	}
	// All samples tied: p50 sits half-way through the bucket.
	if got := build(100, 0).percentile(50); got != lo+(hi-lo)/2 {
		t.Errorf("all tied: p50 = %d, want %d", got, lo+(hi-lo)/2)
	}
	// The same tie resolves by its share of the samples.
	a, b := build(60, 40).percentile(50), build(70, 30).percentile(50)
	if !(lo <= b && b < a && a < hi) {
		t.Errorf("tie share not resolved: 60%% tied -> %d, 70%% tied -> %d, bucket [%d,%d)", a, b, lo, hi)
	}
	// A percentile beyond the tie lands in the upper samples' bucket.
	if got := build(60, 40).percentile(99); got < time.Millisecond-time.Millisecond/64 || got > time.Millisecond+time.Millisecond/32 {
		t.Errorf("p99 = %v, want about 1ms", got)
	}
	if got := (&latencies{}).percentile(50); got != 0 {
		t.Errorf("empty p50 = %v", got)
	}
	// Buckets are exact below 64ns.
	small := &latencies{}
	for _, d := range []time.Duration{5, 7, 9} {
		small.add(d)
	}
	if got := small.percentile(50); got < 7 || got > 8 {
		t.Errorf("small p50 = %d, want within [7,8]", got)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
}
