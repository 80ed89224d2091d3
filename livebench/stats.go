package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a tail estimate resting on fewer is one or two outliers.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (q in [0, 1]) of xs and
// how many samples lie strictly beyond its rank. xs need not be sorted;
// it is not modified. It returns 0, 0 for an empty input.
func percentile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank], len(s) - rank - 1
}

// tailQuantile picks the highest of the candidate quantiles (ascending)
// that has at least minBeyond samples beyond it among n samples, or the
// median when none has.
func tailQuantile(n int, candidates ...float64) float64 {
	best := 0.5
	for _, q := range candidates {
		rank := int(math.Ceil(q*float64(n))) - 1
		if rank >= 0 && n-rank-1 >= minBeyond {
			best = q
		}
	}
	return best
}

// median of xs (mean of the middle pair for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the same
// method as Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so spreads computed here match the ones an outside
// check computes from the same values. One sample gives (x, x).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		// Position i*(n+1)/4 in 1-based order statistics, interpolated
		// between its neighbours (extrapolated at the ends, as Python
		// does).
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// relSpread is the interquartile range of xs as a share of its median.
func relSpread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// nsToFloat converts nanosecond samples to float64 scaled by 1/div (e.g.
// div=1e3 for microseconds).
func nsToFloat(ns []int64, div float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / div
	}
	return out
}

// linFit is an ordinary least-squares fit of y = a + b*x.
func linFit(x, y []float64) (a, b float64) {
	n := float64(len(x))
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return sy / n, 0
	}
	b = (n*sxy - sx*sy) / den
	a = (sy - b*sx) / n
	return a, b
}
