package main

import (
	"fmt"
	"time"

	"lrcdsm/internal/core"
	"lrcdsm/internal/harness"
	"lrcdsm/internal/live"
	"lrcdsm/internal/live/transport"
)

// appRun is one finished, verified application run.
type appRun struct {
	setup, wall time.Duration
	cpu         time.Duration
	stats       *live.Stats
}

// runOnce builds the app and a fresh cluster (the timed set-up), runs it
// (the timed run), then verifies the result outside both.
func runOnce(app string, prot core.Protocol, nodes int, tr *tracer) (appRun, error) {
	t0 := time.Now()
	a, err := harness.NewApp(app, harness.ScaleBench)
	if err != nil {
		return appRun{}, err
	}
	cfg := live.Config{Nodes: nodes, Protocol: prot}
	if tr != nil {
		cfg.Transports = tr.wrapTransports(transport.NewInprocNetwork(nodes))
	}
	cl, err := live.New(cfg)
	if err != nil {
		return appRun{}, err
	}
	a.Configure(cl)
	worker := a.Worker
	if tr != nil {
		worker = tr.runWorker(a.Worker)
	}
	setup := time.Since(t0)

	cpu0 := cpuTime()
	t1 := time.Now()
	st, err := cl.Run(worker)
	wall := time.Since(t1)
	cpu := cpuTime() - cpu0
	if err != nil {
		return appRun{}, fmt.Errorf("%s run: %w", app, err)
	}
	if err := a.Verify(cl); err != nil {
		return appRun{}, fmt.Errorf("%s verify: %w", app, err)
	}
	return appRun{setup: setup, wall: wall, cpu: cpu, stats: st}, nil
}

// appWarmup is how many runs are made and discarded before timing: the
// first runs pay for heap growth and the twin pools filling.
const appWarmup = 3

// appBatch runs the workload until the deadline (at least minRuns
// times), counting failed runs instead of stopping at them.
func appBatch(w *workload, nodes int, tr *tracer, deadline time.Time, minRuns int, acc *tally) []appRun {
	var runs []appRun
	for len(runs) < minRuns || time.Now().Before(deadline) {
		if tr != nil && tr.full() && len(runs) > 0 {
			break
		}
		acc.attempted++
		r, err := runOnce(w.app, w.prot, nodes, tr)
		if err != nil {
			acc.fail(err)
			if acc.failed > 3 {
				break
			}
			continue
		}
		runs = append(runs, r)
	}
	return runs
}

// runApp measures an application workload: end-to-end metrics untraced,
// or (traced) the per-layer metrics from an untraced batch, a traced
// batch of the same size and a one-node batch.
func runApp(w *workload, o *options, rec *record) error {
	acc := &rec.tally
	appBatch(w, 2, nil, time.Time{}, appWarmup, acc)
	if !o.trace {
		runs := appBatch(w, 2, nil, time.Now().Add(o.seconds), 1, acc)
		if len(runs) == 0 {
			return fmt.Errorf("no verified run")
		}
		var setups, walls, busy []float64
		var cpu time.Duration
		for _, r := range runs {
			setups = append(setups, r.setup.Seconds())
			walls = append(walls, float64(r.wall.Nanoseconds())/1e3)
			busy = append(busy, (r.setup + r.wall).Seconds())
			cpu += r.cpu
		}
		rec.metric("setup_s", median(setups), len(setups))
		// Runs per second at the median run: a mean would let the few
		// runs a busy host stalls set the figure.
		rec.metric("ops_per_s", 1/median(busy), len(busy))
		rec.metric("op_p50_us", median(walls), len(walls))
		rec.metric("cpu_us_per_op", float64(cpu.Microseconds())/float64(len(runs)), len(runs))
		rec.metric("peak_rss_mb", peakRSSMB(), 1)
		rec.Work = appWork(runs)
		return nil
	}

	micro, err := runMicro(1)
	if err != nil {
		return err
	}
	rec.addMicro(micro)

	budget := o.seconds * 45 / 100
	ms0 := readRuntime()
	plain := appBatch(w, 2, nil, time.Now().Add(budget), 5, acc)
	ms1 := readRuntime()
	tr := newTracer(spanLimit)
	traced := appBatch(w, 2, tr, time.Time{}, len(plain), acc)
	one := appBatch(w, 1, nil, time.Now().Add(budget/3), 5, acc)
	if len(plain) == 0 || len(traced) == 0 || len(one) == 0 {
		return fmt.Errorf("no verified run")
	}
	rec.Work = appWork(plain)

	obs := &layerObs{ops: int64(len(plain)), runtime: ms1.sub(ms0), runtimeOps: int64(len(plain))}
	var overhead []float64
	var plainWall []int64
	var tracedWall, oneWall []float64
	for _, r := range plain {
		obs.add(r.stats)
		overhead = append(overhead, float64(r.wall.Nanoseconds()-r.stats.ElapsedNs)/1e6)
		plainWall = append(plainWall, r.wall.Nanoseconds())
	}
	rec.tail("op_p90_us", nsToFloat(plainWall, 1e3), 0.9)
	for _, r := range traced {
		tracedWall = append(tracedWall, float64(r.wall.Nanoseconds()))
	}
	for _, r := range one {
		oneWall = append(oneWall, float64(r.wall.Nanoseconds())/1e6)
	}
	obs.tr = tr
	obs.tracedOps = int64(len(traced))
	obs.overhead = median(tracedWall)/median(nsToFloat(plainWall, 1)) - 1
	rec.metric("live.one_node_p50_ms", median(oneWall), len(oneWall))
	rec.metric("live.run_overhead_ms", median(overhead), len(overhead))
	return rec.addLayers(obs, o)
}

// appWork summarizes the per-run work counts, which for a deterministic
// app (jacobi) repeat exactly from run to run.
func appWork(runs []appRun) map[string][2]int64 {
	w := map[string][2]int64{}
	note := func(k string, v int64) {
		mm, ok := w[k]
		if !ok {
			mm = [2]int64{v, v}
		}
		w[k] = [2]int64{min(mm[0], v), max(mm[1], v)}
	}
	for _, r := range runs {
		t := r.stats.Total
		note("shared_accesses_per_run", t.SharedReads+t.SharedWrites)
		note("msgs_per_run", t.MsgsSent)
		note("page_faults_per_run", t.PageFaults)
		note("lock_acquires_per_run", t.LockAcquires)
	}
	return w
}
