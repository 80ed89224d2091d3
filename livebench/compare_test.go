package main

import "testing"

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, d float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + d
		}
		return out
	}
	wide := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name        string
		base, chg   []float64
		better      string
		bound, want float64
		verdict     string
	}{
		{"faster latency", base, shift(base, -10), "lower", 0.1, 0, verdictImproved},
		{"same", base, shift(base, 0.5), "lower", 0.1, 0, verdictWithin},
		{"slower within bound", base, shift(base, 5), "lower", 0.1, 0, verdictWithin},
		{"slower beyond bound", base, shift(base, 20), "lower", 0.1, 0, verdictWorse},
		{"throughput up", base, shift(base, 10), "higher", 0.1, 0, verdictImproved},
		{"throughput down", base, shift(base, -20), "higher", 0.1, 0, verdictWorse},
		{"too noisy", base, wide, "lower", 0.1, 0, verdictUnresolved},
		{"noisy but every run better", wide, shift(wide, -100), "lower", 0.1, 0, verdictImproved},
		// A small shift inside the base's own quartile spread is no gain
		// even when most pairs are won.
		{"shift within spread", base, shift(base, -0.9), "lower", 0.1, 0, verdictWithin},
	} {
		got := compareSamples(c.base, c.chg, c.better, c.bound)
		if got.verdict != c.verdict {
			t.Errorf("%s: verdict %q, want %q (%+v)", c.name, got.verdict, c.verdict, got)
		}
	}
}

func TestComparePairsWon(t *testing.T) {
	c := compareSamples([]float64{10, 10, 10, 10}, []float64{9, 11, 10, 8}, "lower", 0.25)
	if c.pairs != 4 || c.wonFrac != 0.5 {
		t.Errorf("pairs %d won %g, want 4 and 0.5 (a tie counts for neither)", c.pairs, c.wonFrac)
	}
}
