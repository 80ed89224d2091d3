package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"lrcdsm/internal/core"
	"lrcdsm/internal/live"
	"lrcdsm/internal/live/transport"
	"lrcdsm/internal/serve"
	"lrcdsm/internal/serve/loadgen"
)

// The key space every kv workload serves: 32,768 keys, 64 per 4 KB page
// (512 pages), split into partitions among kvClients logical clients so
// every key has one writer and read-your-writes can be checked.
const (
	kvKeys        = 1 << 15
	kvKeysPerPage = 64
	kvClients     = 16
	// kvStream is each client's pre-generated closed-loop request count;
	// the closed loop cycles through it, tagging each pass's values.
	kvStream = 8192
	// kvSetups is how many times the serving cluster is brought up per
	// run; set-up time is their median.
	kvSetups = 30
)

// kvSpec is a serving mix.
type kvSpec struct {
	route    string
	readFrac float64
	dist     string
	// rate is the open-loop offered rate (ops/s): about a sixth of the
	// closed-loop throughput on a 2-CPU host. At half of it, a shared
	// host's slow spells queue requests behind the single sender and the
	// latency figures swing by multiples from run to run.
	rate float64
}

// kvCluster is one serving cluster brought up for load.
type kvCluster struct {
	srv   *serve.Server
	done  chan error
	stats *live.Stats
	start time.Time
	wall  time.Duration
}

// startKV builds the cluster, store and server, starts the cluster run
// and completes one get: the cold start a user waits for before the
// first request is served.
func startKV(spec *kvSpec, tr *tracer) (*kvCluster, error) {
	cfg := live.Config{Nodes: 2, Protocol: core.LH}
	if tr != nil {
		cfg.Transports = tr.wrapTransports(transport.NewInprocNetwork(2))
	}
	cl, err := live.New(cfg)
	if err != nil {
		return nil, err
	}
	st, err := serve.NewStore(cl, serve.Config{Keys: kvKeys, KeysPerPage: kvKeysPerPage, Route: spec.route})
	if err != nil {
		return nil, err
	}
	k := &kvCluster{srv: serve.NewServer(st), done: make(chan error, 1), start: time.Now()}
	worker := k.srv.NodeWorker
	if tr != nil {
		worker = tr.runWorker(worker)
	}
	go func() {
		st, err := cl.Run(worker)
		k.wall = time.Since(k.start)
		k.stats = st
		k.done <- err
	}()
	if v, err := k.srv.Do(false, 0, 0); err != nil || v != 0 {
		k.stop()
		return nil, fmt.Errorf("first get: value %d, %v", v, err)
	}
	return k, nil
}

// stop shuts the server down and waits for the cluster run to end.
func (k *kvCluster) stop() error {
	k.srv.Shutdown()
	return <-k.done
}

// kvClient is one logical client: its request stream and the last value
// it wrote to each key, for read-your-writes and the final sweep.
type kvClient struct {
	id   int
	reqs []loadgen.Req
	next int
	pass uint64
	last map[uint64]uint64
}

// kvLoad is the benchmark's load generator: request streams come from
// loadgen.ClientReqs, and at most nproc goroutines issue them.
type kvLoad struct {
	spec    *kvSpec
	seed    int64
	clients []*kvClient
	workers int
	tally   *tally
	mu      sync.Mutex
}

func loadCfg(spec *kvSpec, seed int64, ops int64, rate float64) loadgen.Config {
	return loadgen.Config{
		Clients: kvClients, Keys: kvKeys, Ops: ops, Rate: rate, Seed: seed,
		Mix:       loadgen.Mix{ReadFrac: spec.readFrac, Dist: spec.dist, Theta: 0.99},
		Partition: true, Verify: true,
	}
}

func newKVLoad(spec *kvSpec, seed int64, acc *tally) *kvLoad {
	l := &kvLoad{spec: spec, seed: seed, workers: min(runtime.NumCPU(), kvClients), tally: acc}
	cfg := loadCfg(spec, seed, kvClients*kvStream, 0)
	for c := 0; c < kvClients; c++ {
		l.clients = append(l.clients, &kvClient{id: c, reqs: loadgen.ClientReqs(cfg, c)})
	}
	return l
}

// reset forgets what was written: a fresh cluster starts all-zero.
func (l *kvLoad) reset() {
	for _, c := range l.clients {
		c.next, c.pass, c.last = 0, 0, map[uint64]uint64{}
	}
}

// rewind restarts every stream from its first request on the same
// cluster; the next pass's values are tagged apart from earlier ones.
func (l *kvLoad) rewind() {
	for _, c := range l.clients {
		c.next, c.pass = 0, c.pass+1
	}
}

// warmup runs the closed loop briefly and discards it: heap growth,
// pools and lock ownership settle before anything is timed.
func (l *kvLoad) warmup(k *kvCluster, d time.Duration) {
	l.reset()
	l.closed(driverFor(k.srv, nil), time.Now().Add(d))
	l.rewind()
}

// issue performs one request and checks a get against the client's own
// last write; it returns false when the request itself errored. tag
// distinguishes this request's value from every earlier write of the
// same stream position.
func (l *kvLoad) issue(d loadgen.Driver, c *kvClient, rq loadgen.Req, tag uint64) bool {
	val := rq.Val
	if rq.Put {
		val |= tag
	}
	got, err := d.Do(rq.Put, rq.Key, val)
	if err != nil {
		l.fail(fmt.Errorf("client %d key %d: %w", c.id, rq.Key, err), false)
		return false
	}
	if rq.Put {
		c.last[rq.Key] = val
		return true
	}
	if want := c.last[rq.Key]; got != want {
		// A stale read fails this request; the load goes on, so one
		// failure does not also shorten the measurement.
		l.fail(fmt.Errorf("client %d key %d: read %#x, last wrote %#x", c.id, rq.Key, got, want), true)
	}
	return true
}

// fail counts a failed request; a stale read is also a violation of
// read-your-writes.
func (l *kvLoad) fail(err error, stale bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.tally.fail(err)
	if stale {
		l.tally.violations++
	}
}

// driverFor returns the driver worker g issues through: the server, or
// a traced wrapper of it.
func driverFor(srv *serve.Server, tr *tracer) func(g int) loadgen.Driver {
	return func(int) loadgen.Driver {
		if tr != nil {
			return tr.wrapDriver(srv)
		}
		return srv
	}
}

// closed runs a closed loop: each worker issues its clients' requests
// back to back, round-robin, and counts them. It stops at the deadline,
// or, with deadline zero, after each client's stream has been issued
// once.
func (l *kvLoad) closed(drv func(int) loadgen.Driver, deadline time.Time) (int64, time.Duration) {
	counts := make([]int64, l.workers)
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < l.workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			d := drv(g)
			td, _ := d.(*tracedDriver)
			for {
				progressed := false
				for c := g; c < kvClients; c += l.workers {
					cl := l.clients[c]
					if cl.next == len(cl.reqs) {
						if deadline.IsZero() {
							continue
						}
						cl.next, cl.pass = 0, cl.pass+1
					}
					if td != nil {
						td.req = uint64(c)<<32 | uint64(cl.next)
					}
					if !l.issue(d, cl, cl.reqs[cl.next], (cl.pass&0x7f)<<56) {
						return
					}
					cl.next++
					counts[g]++
					progressed = true
				}
				if !progressed || (!deadline.IsZero() && time.Now().After(deadline)) {
					return
				}
			}
		}(g)
	}
	wg.Wait()
	el := time.Since(t0)
	var n int64
	for _, c := range counts {
		n += c
	}
	return n, el
}

// segStat is one open-loop segment's latency summary (microseconds).
type segStat struct {
	all50, all90         float64
	get50, get99         float64
	put50, put99         float64
	late99               float64
	ops, gets, puts, lat int
}

// open runs the open loop at the spec's rate as segs back-to-back
// segments of segDur, each with a fresh Poisson schedule per client from
// ClientReqs. One sender issues every request in due order (it spins
// between requests, and on a 2-CPU host a second spinning sender takes
// the CPU the cluster needs: p90 rose from 14 us to 2 ms); latency
// counts from the due time, so a stall is charged to every request it
// delays. Each segment is summarized on its own: reporting the median
// over segments keeps one host hiccup from moving a run's figures, and
// keeps memory to one segment's schedule.
func (l *kvLoad) open(drv func(int) loadgen.Driver, segs int, segDur time.Duration) []segStat {
	d := drv(0)
	var out []segStat
	var get, put, late []int64
	for sg := 0; sg < segs; sg++ {
		cfg := loadCfg(l.spec, l.seed^int64(0x5eed+sg)<<20, int64(l.spec.rate*segDur.Seconds()), l.spec.rate)
		streams := make([][]loadgen.Req, kvClients)
		n := 0
		for c := range streams {
			streams[c] = loadgen.ClientReqs(cfg, c)
			n += len(streams[c])
		}
		if cap(get) < n {
			get, put, late = make([]int64, 0, n), make([]int64, 0, n), make([]int64, 0, n)
		}
		get, put, late = get[:0], put[:0], late[:0]
		pos := make([]int, kvClients)
		t0 := time.Now()
		for {
			// The client whose next request is due first.
			c := -1
			for i := range streams {
				if pos[i] < len(streams[i]) && (c < 0 || streams[i][pos[i]].At < streams[c][pos[c]].At) {
					c = i
				}
			}
			if c < 0 {
				break
			}
			rq := streams[c][pos[c]]
			pos[c]++
			at := t0.Add(rq.At)
			if waitUntil(at) {
				late = append(late, time.Since(at).Nanoseconds())
			}
			if !l.issue(d, l.clients[c], rq, 1<<63) {
				return out
			}
			ns := time.Since(at).Nanoseconds()
			if rq.Put {
				put = append(put, ns)
			} else {
				get = append(get, ns)
			}
		}
		st := segStat{ops: len(get) + len(put), gets: len(get), puts: len(put)}
		all := nsToFloat(append(append([]int64(nil), get...), put...), 1e3)
		st.all50, _ = percentile(all, 0.5)
		st.all90, _ = percentile(all, 0.9)
		g, p := nsToFloat(get, 1e3), nsToFloat(put, 1e3)
		st.get50, _ = percentile(g, 0.5)
		st.get99, _ = percentile(g, 0.99)
		st.put50, _ = percentile(p, 0.5)
		st.put99, _ = percentile(p, 0.99)
		st.late99, _ = percentile(nsToFloat(late, 1e3), 0.99)
		out = append(out, st)
	}
	return out
}

// segMedian is the median over segments of one summary field.
func segMedian(segs []segStat, f func(segStat) float64) float64 {
	xs := make([]float64, len(segs))
	for i, s := range segs {
		xs[i] = f(s)
	}
	return median(xs)
}

func segOps(segs []segStat) (ops, gets, puts int) {
	for _, s := range segs {
		ops, gets, puts = ops+s.ops, gets+s.gets, puts+s.puts
	}
	return
}

// waitUntil returns at t, reporting whether it had to wait. Timer sleeps
// overshoot by hundreds of microseconds on a loaded host, more than the
// gap between requests, so the last stretch yields in a loop instead.
func waitUntil(t time.Time) bool {
	if !time.Now().Before(t) {
		return false
	}
	for {
		d := time.Until(t)
		if d <= 0 {
			return true
		}
		if d > 2*time.Millisecond {
			time.Sleep(d - time.Millisecond)
			continue
		}
		runtime.Gosched()
	}
}

// sweep reads back every key each client wrote and checks it holds the
// client's last acknowledged value.
func (l *kvLoad) sweep(srv *serve.Server) int64 {
	var n int64
	for _, c := range l.clients {
		for k, want := range c.last {
			got, err := srv.Do(false, k, 0)
			n++
			if err != nil || got != want {
				l.fail(fmt.Errorf("sweep: client %d key %d read %#x (%v), want %#x", c.id, k, got, err, want), err == nil)
			}
		}
	}
	return n
}

// runKV measures a serving workload. Untraced: set-up time, then a
// closed-loop phase (throughput) and an open-loop phase at the spec's
// rate (latency), each half the run. Traced: one untraced cluster runs a
// fixed closed pass plus a short open phase for the layer counters, and a
// traced cluster runs the same closed pass.
func runKV(w *workload, o *options, rec *record) error {
	acc := &rec.tally
	load := newKVLoad(w.kv, o.seed, acc)

	var setups []float64
	var k *kvCluster
	for i := 0; i < kvSetups; i++ {
		t0 := time.Now()
		c, err := startKV(w.kv, nil)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < kvSetups-1 {
			if err := c.stop(); err != nil {
				return err
			}
			continue
		}
		k = c
	}
	warm := o.seconds / 20
	load.warmup(k, warm)

	if !o.trace {
		// Half the run closed-loop (throughput), half open-loop
		// (latency), both in one-second segments summarized by medians.
		segs := max(1, int(o.seconds/time.Second)/2)
		runtime.GC()
		cpu0 := cpuTime()
		var closedOps int64
		var rates []float64
		for i := 0; i < segs; i++ {
			n, el := load.closed(driverFor(k.srv, nil), time.Now().Add(time.Second))
			closedOps += n
			rates = append(rates, float64(n)/el.Seconds())
		}
		cpu := cpuTime() - cpu0
		lat := load.open(driverFor(k.srv, nil), segs, time.Second)
		openOps, _, _ := segOps(lat)
		acc.attempted += closedOps + int64(openOps) + load.sweep(k.srv)
		if err := k.stop(); err != nil {
			return fmt.Errorf("cluster run: %w", err)
		}
		rec.metric("setup_s", median(setups), len(setups))
		rec.metric("ops_per_s", median(rates), int(closedOps))
		rec.metric("op_p50_us", segMedian(lat, func(s segStat) float64 { return s.all50 }), openOps)
		// CPU per op from the closed phase alone: the open-loop generator
		// spins while it waits for each request's due time.
		rec.metric("cpu_us_per_op", float64(cpu.Nanoseconds())/1e3/float64(closedOps), int(closedOps))
		rec.metric("peak_rss_mb", peakRSSMB(), 1)
		rec.Notes = append(rec.Notes, fmt.Sprintf("ops_per_s: median of %d one-second closed-loop segments; op_p50_us: median over %d one-second open-loop segments at %.0f ops/s",
			segs, len(lat), w.kv.rate))
		return nil
	}

	micro, err := runMicro(1)
	if err != nil {
		return err
	}
	rec.addMicro(micro)

	// Untraced reference: one closed pass over the streams, then a short
	// open phase for the per-type latency split and generator lateness.
	ms0 := readRuntime()
	plainOps, plainEl := load.closed(driverFor(k.srv, nil), time.Time{})
	ms1 := readRuntime()
	lat := load.open(driverFor(k.srv, nil), max(1, int(o.seconds/time.Second)/5), time.Second)
	openOps, _, _ := segOps(lat)
	acc.attempted += plainOps + int64(openOps) + load.sweep(k.srv)
	sh := k.srv.HistSummary()
	if err := k.stop(); err != nil {
		return fmt.Errorf("cluster run: %w", err)
	}

	tr := newTracer(spanLimit)
	tk, err := startKV(w.kv, tr)
	if err != nil {
		return err
	}
	load.warmup(tk, warm)
	tracedOps, tracedEl := load.closed(driverFor(tk.srv, tr), time.Time{})
	acc.attempted += tracedOps + load.sweep(tk.srv)
	if err := tk.stop(); err != nil {
		return fmt.Errorf("traced cluster run: %w", err)
	}
	if tracedOps != plainOps {
		acc.fail(fmt.Errorf("traced pass completed %d ops, untraced %d", tracedOps, plainOps))
	}

	served := k.stats.Total.ServeGets + k.stats.Total.ServePuts
	obs := &layerObs{ops: served, runtime: ms1.sub(ms0), runtimeOps: plainOps}
	obs.add(k.stats)
	obs.tr = tr
	obs.tracedOps = tk.stats.Total.ServeGets + tk.stats.Total.ServePuts
	obs.overhead = tracedEl.Seconds()/plainEl.Seconds() - 1
	obs.serveHist = sh
	obs.serveWorkers = k.srv.Store().Resolved().Workers
	obs.kv = lat
	rec.metric("live.one_node_p50_ms", 0, 0)
	rec.metric("live.run_overhead_ms", float64(k.wall.Nanoseconds()-k.stats.ElapsedNs)/1e6, 1)
	return rec.addLayers(obs, o)
}
