package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// Verdicts of one metric on one workload. A gain needs nine tenths of
// the pairs won and a median shift beyond the base's own quartile
// spread; a spread wider than the bound leaves the metric unresolved
// unless every change run beats every base run.
const (
	verdictImproved   = "improved"
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// comparison is one workload x metric row.
type comparison struct {
	baseMed, baseQ1, baseQ3 float64
	chgMed, chgQ1, chgQ3    float64
	change                  float64 // (change - base) / base median, signed so > 0 is worse
	wonFrac                 float64 // share of pairs the change won (ties count for neither)
	pairs                   int
	verdict                 string
}

// compareSamples compares a change's runs with the base's. Pairs are
// formed in order (run i of each side), as alternating runs give them.
func compareSamples(base, chg []float64, better string, bound float64) comparison {
	var c comparison
	c.baseMed, c.chgMed = median(base), median(chg)
	c.baseQ1, c.baseQ3 = quartiles(base)
	c.chgQ1, c.chgQ3 = quartiles(chg)
	sign := 1.0 // +1: higher is worse
	if better == "higher" {
		sign = -1
	}
	if c.baseMed != 0 {
		c.change = sign * (c.chgMed - c.baseMed) / math.Abs(c.baseMed)
	}
	c.pairs = min(len(base), len(chg))
	won := 0
	for i := 0; i < c.pairs; i++ {
		if sign*(chg[i]-base[i]) < 0 {
			won++
		}
	}
	if c.pairs > 0 {
		c.wonFrac = float64(won) / float64(c.pairs)
	}
	allBetter := len(base) > 0 && len(chg) > 0
	for _, x := range chg {
		for _, y := range base {
			if sign*(x-y) >= 0 {
				allBetter = false
			}
		}
	}
	shift := math.Abs(c.chgMed - c.baseMed)
	switch {
	case relSpread(base) > bound || relSpread(chg) > bound:
		c.verdict = verdictUnresolved
		if allBetter {
			c.verdict = verdictImproved
		}
	case c.change < 0 && c.wonFrac >= 0.9 && shift > c.baseQ3-c.baseQ1:
		c.verdict = verdictImproved
	case c.change > bound:
		c.verdict = verdictWorse
	default:
		c.verdict = verdictWithin
	}
	return c
}

// readRecords loads every {"record": ...} line of a results file.
func readRecords(path string) ([]*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		var line struct {
			Record *record `json:"record"`
		}
		if json.Unmarshal(sc.Bytes(), &line) == nil && line.Record != nil {
			out = append(out, line.Record)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no result records", path)
	}
	return out, nil
}

// compareMain is the compare mode: livebench compare [--spec file] base change.
func compareMain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("want two result files (base, change), got %d", fs.NArg())
	}
	raw, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", *specPath, err)
	}
	base, err := readRecords(fs.Arg(0))
	if err != nil {
		return err
	}
	chg, err := readRecords(fs.Arg(1))
	if err != nil {
		return err
	}
	return writeComparison(out, &spec, base, chg)
}

func writeComparison(out io.Writer, spec *benchSpec, base, chg []*record) error {
	byWorkload := func(rs []*record) map[string][]*record {
		m := map[string][]*record{}
		for _, r := range rs {
			if !r.Trace {
				m[r.Workload] = append(m[r.Workload], r)
			}
		}
		return m
	}
	bw, cw := byWorkload(base), byWorkload(chg)
	var names []string
	for w := range bw {
		if _, ok := cw[w]; ok {
			names = append(names, w)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("no workload has untraced records on both sides")
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%-12s %-14s %24s %24s %8s %6s  %s\n", "workload", "metric", "base median [q1,q3]", "change median [q1,q3]", "worse by", "won", "verdict")
	for _, w := range names {
		// A gain does not count when more operations fail than before.
		failed := func(rs []*record) (f, a int64) {
			for _, r := range rs {
				f, a = f+r.Failed, a+r.Attempted
			}
			return f, a
		}
		bf, ba := failed(bw[w])
		cf, ca := failed(cw[w])
		fmt.Fprintf(out, "%-12s %-14s %24s %24s\n", w, "failed ops", fmt.Sprintf("%d of %d", bf, ba), fmt.Sprintf("%d of %d", cf, ca))
		for _, m := range spec.EndToEnd {
			get := func(rs []*record) []float64 {
				var xs []float64
				for _, r := range rs {
					if v, ok := r.Metrics[m.Name]; ok {
						xs = append(xs, v.Value)
					}
				}
				return xs
			}
			b, c := get(bw[w]), get(cw[w])
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			r := compareSamples(b, c, m.Better, m.Bound)
			fmt.Fprintf(out, "%-12s %-14s %10.4g [%.4g,%.4g] %10.4g [%.4g,%.4g] %+7.1f%% %3d/%-3d %s (bound %.0f%%, %s better)\n",
				w, m.Name, r.baseMed, r.baseQ1, r.baseQ3, r.chgMed, r.chgQ1, r.chgQ3, 100*r.change,
				int(math.Round(r.wonFrac*float64(r.pairs))), r.pairs, r.verdict, 100*m.Bound, m.Better)
		}
	}
	return nil
}
