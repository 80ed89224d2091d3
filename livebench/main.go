// Command livebench is the repository's benchmark of the live DSM
// runtime: three workloads on 2-node in-process clusters, each output
// checked, end-to-end metrics from untraced runs and per-layer metrics
// from layer microbenchmarks plus a traced run.
//
//	livebench --workload cholesky-lh --seed 1 --seconds 40 --trace 0
//	livebench compare base.jsonl change.jsonl
//
// A run prints human-readable tables on standard error, then on standard
// output one {"record": ...} line (every metric, sample counts and
// provenance; save these lines to compare runs) and, last, the summary
// line {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"lrcdsm/internal/core"
)

// workload is one benchmark input: an application run back to back, or
// a serving mix.
type workload struct {
	name string
	app  string
	prot core.Protocol
	kv   *kvSpec
}

// workloads are the benchmark's inputs; BENCHMARK.json says why each was
// chosen. A shared-write serving mix (route "any", 50% puts, uniform) is
// left out: on it the serving layer returns stale reads, a get after the
// same client's acknowledged put sometimes reads an older value, so its
// runs do not reliably verify.
var workloads = []*workload{
	{name: "cholesky-lh", app: "cholesky", prot: core.LH},
	{name: "jacobi-li", app: "jacobi", prot: core.LI},
	{name: "kv-local", kv: &kvSpec{route: "affinity", readFrac: 0.95, dist: "zipfian", rate: 50000}},
}

// spanLimit caps the spans a traced run keeps in memory (48 bytes each).
const spanLimit = 1 << 20

type options struct {
	workload *workload
	seed     int64
	seconds  time.Duration
	trace    bool
	traceDir string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tally counts attempted and failed operations (app runs or kv requests).
type tally struct {
	attempted, failed int64
	violations        int64
	errs              []string
}

func (t *tally) fail(err error) {
	t.failed++
	if len(t.errs) < 10 {
		t.errs = append(t.errs, err.Error())
	}
}

// record is everything one run measured.
type record struct {
	Workload   string              `json:"workload"`
	Seed       int64               `json:"seed"`
	Trace      bool                `json:"trace"`
	Seconds    float64             `json:"seconds"`
	Correct    bool                `json:"correct"`
	Attempted  int64               `json:"attempted"`
	Failed     int64               `json:"failed"`
	Errors     []string            `json:"errors,omitempty"`
	Metrics    map[string]metric   `json:"metrics"`
	Samples    map[string]int      `json:"samples"`
	Beyond     map[string]int      `json:"samples_beyond,omitempty"`
	Work       map[string][2]int64 `json:"work_min_max,omitempty"`
	Notes      []string            `json:"notes,omitempty"`
	Provenance provenance          `json:"provenance"`

	tally tally
}

func (r *record) metric(name string, v float64, samples int) {
	r.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
	r.Samples[name] = samples
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "livebench compare:", err)
			os.Exit(2)
		}
		return
	}
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "livebench:", err)
		os.Exit(2)
	}
	rec, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "livebench:", err)
		os.Exit(1)
	}
	if err := emit(os.Stdout, rec); err != nil {
		fmt.Fprintln(os.Stderr, "livebench:", err)
		os.Exit(1)
	}
	if !rec.Correct {
		fmt.Fprintln(os.Stderr, "livebench: output verification FAILED")
	}
}

func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("livebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: cholesky-lh, jacobi-li or kv-local")
	seed := fs.Int64("seed", 1, "seed of the kv request streams (the apps take fixed inputs)")
	secs := fs.Int("seconds", 40, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: per-layer metrics from microbenchmarks and a traced run")
	dir := fs.String("trace-dir", ".bench_build/traces", "where the traced run writes its spans")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	o := &options{seed: *seed, seconds: time.Duration(*secs) * time.Second, trace: *trace == 1,
		traceDir: *dir}
	for _, w := range workloads {
		if w.name == *name {
			o.workload = w
		}
	}
	switch {
	case o.workload == nil:
		return nil, fmt.Errorf("unknown workload %q", *name)
	case *secs < 1:
		return nil, fmt.Errorf("--seconds %d, want >= 1", *secs)
	case *trace != 0 && *trace != 1:
		return nil, fmt.Errorf("--trace %d, want 0 or 1", *trace)
	}
	return o, nil
}

// run measures one workload and fills its record.
func run(o *options) (*record, error) {
	rec := &record{
		Workload: o.workload.name, Seed: o.seed, Trace: o.trace, Seconds: o.seconds.Seconds(),
		Metrics: map[string]metric{}, Samples: map[string]int{}, Beyond: map[string]int{},
		Provenance: hostProvenance(),
	}
	var err error
	if o.workload.kv != nil {
		err = runKV(o.workload, o, rec)
	} else {
		err = runApp(o.workload, o, rec)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload.name, err)
	}
	t := &rec.tally
	rec.Attempted, rec.Failed, rec.Errors = t.attempted, t.failed, t.errs
	rec.Correct = t.failed == 0 && t.violations == 0 && t.attempted > 0
	for _, name := range expectedMetrics(o.trace) {
		if _, ok := rec.Metrics[name]; !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", o.workload.name, name)
		}
	}
	return rec, nil
}

// emit prints the tables (stderr), the record line and the summary line.
func emit(out io.Writer, rec *record) error {
	printTables(os.Stderr, rec)
	line, err := json.Marshal(struct {
		Record *record `json:"record"`
	}{rec})
	if err != nil {
		return err
	}
	ms := map[string]metric{}
	for _, name := range expectedMetrics(rec.Trace) {
		ms[name] = rec.Metrics[name]
	}
	summary := map[string]any{"correct": rec.Correct, "attempted": rec.Attempted, "failed": rec.Failed, "metrics": ms}
	last, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n%s\n", line, last)
	return err
}
