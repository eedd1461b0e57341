package main

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// rank is the 1-based nearest rank of percentile p among n samples. The
// tolerance keeps float error (99.9% of 10000 is 9990.000000000002) from
// pushing an exact rank up by one.
func rank(p float64, n int) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// reportablePercentiles are the percentiles a timing may be reported at.
var reportablePercentiles = []float64{50, 90, 99, 99.9, 99.99}

// highestReportable returns the highest percentile in reportablePercentiles
// that has at least minTail of n samples beyond it, or 0 if none has.
func highestReportable(n int) float64 {
	best := 0.0
	for _, p := range reportablePercentiles {
		if n > 0 && n-rank(p, n) >= minTail {
			best = p
		}
	}
	return best
}

// latencies records simulated op latencies exactly.
type latencies struct {
	d      []time.Duration
	sorted bool
}

func (l *latencies) add(d time.Duration) {
	l.d = append(l.d, d)
	l.sorted = false
}

func (l *latencies) count() int { return len(l.d) }

// percentile estimates the p-th percentile (0 with no samples) the way
// Prometheus' histogram_quantile does: samples fall into log-linear buckets
// of 1/64 octave, and the estimate interpolates linearly inside the bucket
// that holds rank p/100·n. The simulator's cost model is deterministic, so
// many ops take exactly the same time; interpolation resolves a percentile
// that lands among such ties by how many of them lie below it, where the
// nearest-rank sample would read the same value whatever the share.
func (l *latencies) percentile(p float64) time.Duration {
	n := len(l.d)
	if n == 0 {
		return 0
	}
	if !l.sorted {
		sort.Slice(l.d, func(i, j int) bool { return l.d[i] < l.d[j] })
		l.sorted = true
	}
	q := p / 100 * float64(n)
	lo, hi := bucketOf(l.d[rank(p, n)-1])
	below := sort.Search(n, func(i int) bool { return l.d[i] >= lo })
	in := sort.Search(n, func(i int) bool { return l.d[i] >= hi }) - below
	f := (q - float64(below)) / float64(in)
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	return lo + time.Duration(f*float64(hi-lo))
}

// bucketOf returns the log-linear bucket [lo, hi) holding d: exact below
// 64ns, then 64 equal sub-buckets per power of two (the geometry of the
// repository's metrics.Histogram).
func bucketOf(d time.Duration) (lo, hi time.Duration) {
	if d < 64 {
		return d, d + 1
	}
	e := bits.Len64(uint64(d)) - 1
	w := time.Duration(1) << uint(e-6)
	lo = d &^ (w - 1)
	return lo, lo + w
}

// median of a non-empty sample (mean of the middle pair for even counts).
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
