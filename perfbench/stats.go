package main

import (
	"math"
	"sort"
)

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean something.
const tailMinBeyond = 10

// tailPercentile returns the highest of the standard tail percentiles
// (99.9, 99, 95, 90, 50) that has at least tailMinBeyond of n samples beyond
// it, or 0 when even the median does not.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 50} {
		if n-rank(n, p) >= tailMinBeyond {
			return p
		}
	}
	return 0
}

// rank is the 1-based nearest-rank position of percentile p among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n) / 100))
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank percentile p of an ascending sample.
func percentile(sorted []float64, p float64) float64 {
	return sorted[rank(len(sorted), p)-1]
}

// median returns the median of xs (the mean of the two middle values for an
// even count) without reordering xs.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
