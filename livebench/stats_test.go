package main

import (
	"math"
	"testing"
)

func TestTailQuantileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := tailQuantile(c.n, 0.9, 0.99, 0.999); got != c.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileCountsSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted input
	}
	v, beyond := percentile(xs, 0.9)
	if v != 90 || beyond != 10 {
		t.Errorf("p90 of 1..100 = %g with %d beyond, want 90 with 10", v, beyond)
	}
	if v, beyond := percentile(xs, 0.5); v != 50 || beyond != 50 {
		t.Errorf("p50 of 1..100 = %g with %d beyond, want 50 with 50", v, beyond)
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
}

// TestQuartilesMatchPython checks against statistics.quantiles(xs, n=4),
// the method the benchmark's spread rule is stated in.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 4}, 1, 5},
		{[]float64{3.5, 1.25, 9, 7, 2.5, 8}, 2.1875, 8.25},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestLinFitRecoversLine(t *testing.T) {
	x := []float64{0.05, 0.1, 0.5, 4.1}
	var y []float64
	for _, v := range x {
		y = append(y, 900+1000*v)
	}
	a, b := linFit(x, y)
	if math.Abs(a-900) > 1e-6 || math.Abs(b-1000) > 1e-6 {
		t.Errorf("fit = %g + %g x, want 900 + 1000 x", a, b)
	}
}
