package main

import (
	"math"
	"sort"
	"strconv"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), without reordering xs. It is NaN for no
// samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs with the
// "exclusive" method of Python's statistics.quantiles(xs, n=4) — the
// convention the spreads in README.md and in -sets mode are quoted in.
// A single sample is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// spread is the quartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// tailPercentiles are the candidate tail percentiles, highest first. The
// median is reported on its own, so it is not a candidate.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// tail reports the highest percentile of xs that leaves at least ten
// samples beyond it, with the nearest-rank value at that percentile. A
// percentile with fewer than ten samples above it says little about the
// tail, so with under 40 samples there is no tail and ok is false.
func tail(xs []float64) (pct, value float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	for _, p := range tailPercentiles {
		// 1-based nearest rank; the epsilon keeps 99.9 % of 10000 at
		// rank 9990 despite 99.9/100 rounding up.
		rank := int(math.Ceil(p/100*float64(n) - 1e-9))
		if rank < 1 || n-rank < 10 {
			continue
		}
		return p, s[rank-1], true
	}
	return 0, 0, false
}

// pctName renders a percentile for a metric name: 99.9 → "p99.9".
func pctName(p float64) string {
	return "p" + strconv.FormatFloat(p, 'f', -1, 64)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
