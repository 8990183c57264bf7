package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle ones for an
// even count); zero for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method), which is
// what the driver uses for its spread check. Fewer than two samples have no
// spread: both quartiles equal the sample.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0]
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4 // outside [0,4] at the clamps: Python extrapolates too
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spreadShare is the interquartile distance as a share of the median.
func spreadShare(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}

// tailLadder are the percentiles a tail latency may be reported at.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// highestPercentile returns the highest percentile of the ladder, capped at
// limit, that still has at least ten samples beyond it among n: a tail read
// off fewer samples is one outlier, not a percentile.
func highestPercentile(n int, limit float64) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if p > limit {
			break
		}
		if n-rankOf(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// rankOf is the nearest-rank position (1-based) of percentile p among n.
func rankOf(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank percentile p of xs; zero for no
// samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankOf(len(s), p)-1]
}
