package main

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"lrcdsm/internal/live"
	"lrcdsm/internal/live/node"
	"lrcdsm/internal/live/wire"
	"lrcdsm/internal/serve/hist"
)

// endToEnd lists the metrics an untraced run reports, with units. "op"
// is one verified application run or one kv request.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"cpu_us_per_op", "us"},
	{"peak_rss_mb", "MB"},
}

// trafficKinds are the wire kinds the traced run's per-kind traffic
// table reports as metrics: every kind a healthy 2-node run sends.
var trafficKinds = []wire.Kind{
	wire.KPageReq, wire.KPageReply, wire.KDiffReq, wire.KDiffReply,
	wire.KWriteNotices, wire.KAck, wire.KLockReq, wire.KLockForward,
	wire.KLockGrant, wire.KBarArrive, wire.KBarRelease, wire.KHeartbeat,
}

// perLayer lists the metrics a traced run reports, with units.
func perLayer() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, struct{ name, unit string }{n, unit})
		}
	}
	add("ns", "node.read_hit_ns", "node.write_hit_ns", "node.lock_local_ns")
	add("count", "node.accesses_per_op")
	add("us", "node.handoff_us")
	add("count", "node.msgs_per_handoff")
	add("us", "node.lock_us.p50", "node.lock_us.p99", "node.unlock_us.p50", "node.unlock_us.p99")
	add("ratio", "node.lock_local_frac")
	add("count", "node.lock_handoffs_per_op", "node.lock_forwards_per_op")
	add("ratio", "node.lock_wait_frac")
	add("us", "node.barrier_us", "node.barrier_us.p50", "node.barrier_us.p99")
	add("ratio", "node.barrier_wait_frac")
	add("us", "node.fault_us")
	add("count", "node.page_fetches_per_op")
	add("ratio", "node.fault_wait_frac")
	add("us", "node.diff_pull_us")
	add("count", "node.diff_pulls_per_op", "node.diffs_created_per_op")
	add("B", "node.diff_bytes_per_op")
	add("ratio", "node.flush_wait_frac")
	add("count", "node.msgs_per_op")
	add("B", "node.bytes_per_op")
	add("count", "node.retries_per_op")
	add("ratio", "node.max_msg_frac")
	for _, k := range wireKinds {
		add("ns", "wire.encode_ns."+k.String(), "wire.decode_ns."+k.String())
		add("count", "wire.allocs."+k.String())
	}
	add("ns", "transport.inproc_hop_ns.64B", "transport.inproc_hop_ns.4KB")
	for _, k := range trafficKinds {
		add("count", "transport.msgs_per_op."+k.String())
		add("B", "transport.bytes_per_op."+k.String())
	}
	add("ns", "page.makediff_ns.sparse", "page.makediff_ns.dense", "page.apply_ns")
	add("us", "serve.queue_exec_p50_us", "serve.queue_exec_p99_us")
	add("count", "serve.ops_per_lock")
	add("ratio", "serve.lock_wait_frac")
	add("us", "op_p90_us")
	add("us", "kv.get_p50_us", "kv.get_p99_us", "kv.put_p50_us", "kv.put_p99_us")
	add("us", "loadgen.late_p99_us")
	add("count", "loadgen.violations")
	add("B", "runtime.alloc_bytes_per_op")
	add("count", "runtime.mallocs_per_op")
	add("ratio", "runtime.gc_cpu_frac")
	add("ms", "live.one_node_p50_ms", "live.run_overhead_ms")
	add("ratio", "trace.compute_frac", "trace.lock_frac", "trace.barrier_frac", "trace.overhead_frac")
	add("us", "fit.msg_fixed_us", "fit.msg_per_kb_us")
	return out
}

var units = func() map[string]string {
	m := map[string]string{}
	for _, e := range endToEnd {
		m[e.name] = e.unit
	}
	for _, e := range perLayer() {
		m[e.name] = e.unit
	}
	return m
}()

func unitOf(name string) string {
	u, ok := units[name]
	if !ok {
		panic("livebench: metric " + name + " has no unit")
	}
	return u
}

// expectedMetrics is the metric set a run must report.
func expectedMetrics(trace bool) []string {
	var out []string
	if !trace {
		for _, e := range endToEnd {
			out = append(out, e.name)
		}
		return out
	}
	for _, e := range perLayer() {
		out = append(out, e.name)
	}
	return out
}

// tail records the q-quantile of xs with the count of samples beyond
// it, noting when that count is below minBeyond and which quantile the
// samples would support.
func (r *record) tail(name string, xs []float64, q float64) {
	v, beyond := percentile(xs, q)
	r.metric(name, v, len(xs))
	r.Beyond[name] = beyond
	if len(xs) > 0 && beyond < minBeyond {
		r.Notes = append(r.Notes, fmt.Sprintf("%s rests on %d samples beyond it (of %d); %d samples support p%g",
			name, beyond, len(xs), len(xs), 100*tailQuantile(len(xs), 0.9, 0.99, 0.999)))
	}
}

func (r *record) addMicro(m *microResult) {
	for name, v := range m.m {
		r.metric(name, v, m.samples[name])
	}
	// Cross-check of the fit against a real exchange: the handoff's
	// software cost spread over its messages.
	if n := m.m["node.msgs_per_handoff"]; n > 0 {
		r.Notes = append(r.Notes, fmt.Sprintf("fit cross-check: handoff %.2f us / %.2f msgs = %.2f us per message; fit fixed cost %.2f us",
			m.m["node.handoff_us"], n, m.m["node.handoff_us"]/n, m.m["fit.msg_fixed_us"]))
	}
}

// layerObs is what a traced-mode run observed, from which the
// Stats-derived and trace-derived per-layer metrics are computed.
type layerObs struct {
	total      node.Stats // summed counters
	nodeNs     int64      // summed node-time: ElapsedNs x Nodes
	maxMsgFrac []float64
	ops        int64 // ops the Stats cover (app runs or served kv requests)

	runtime    runtimeDelta
	runtimeOps int64

	tr        *tracer
	tracedOps int64   // ops the traced run covers
	overhead  float64 // traced / untraced time - 1

	serveHist    *hist.Summary // kv only
	serveWorkers int
	kv           []segStat // kv only: untraced open-loop segments
}

func (o *layerObs) add(st *live.Stats) {
	t, s := &o.total, &st.Total
	for _, p := range []struct{ dst, src *int64 }{
		{&t.MsgsSent, &s.MsgsSent}, {&t.BytesSent, &s.BytesSent},
		{&t.SharedReads, &s.SharedReads}, {&t.SharedWrites, &s.SharedWrites},
		{&t.PageFetches, &s.PageFetches}, {&t.DiffPulls, &s.DiffPulls},
		{&t.DiffsCreated, &s.DiffsCreated}, {&t.DiffBytes, &s.DiffBytes},
		{&t.LockAcquires, &s.LockAcquires}, {&t.LockLocalAcquires, &s.LockLocalAcquires},
		{&t.LockForwards, &s.LockForwards}, {&t.LockHandoffs, &s.LockHandoffs},
		{&t.RPCRetries, &s.RPCRetries}, {&t.DupRequests, &s.DupRequests}, {&t.DupReplies, &s.DupReplies},
		{&t.LockWaitNs, &s.LockWaitNs}, {&t.BarrierWaitNs, &s.BarrierWaitNs},
		{&t.FaultWaitNs, &s.FaultWaitNs}, {&t.FlushWaitNs, &s.FlushWaitNs},
		{&t.ServeGets, &s.ServeGets}, {&t.ServePuts, &s.ServePuts}, {&t.ServeLockWaitNs, &s.ServeLockWaitNs},
	} {
		*p.dst += *p.src
	}
	o.nodeNs += st.ElapsedNs * int64(st.Nodes)
	o.maxMsgFrac = append(o.maxMsgFrac, st.MaxMsgFrac)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// addLayers computes every Stats- and trace-derived per-layer metric.
// A metric whose layer the workload does not use (barriers in kv, the
// serving layer in the apps) reads 0.
func (r *record) addLayers(o *layerObs, opt *options) error {
	t := &o.total
	ops := float64(o.ops)
	per := func(name string, v int64) { r.metric(name, ratio(float64(v), ops), int(o.ops)) }
	frac := func(name string, ns int64) { r.metric(name, ratio(float64(ns), float64(o.nodeNs)), int(o.ops)) }

	per("node.accesses_per_op", t.SharedReads+t.SharedWrites)
	r.metric("node.lock_local_frac", ratio(float64(t.LockLocalAcquires), float64(t.LockAcquires)), int(t.LockAcquires))
	per("node.lock_handoffs_per_op", t.LockHandoffs)
	per("node.lock_forwards_per_op", t.LockForwards)
	frac("node.lock_wait_frac", t.LockWaitNs)
	frac("node.barrier_wait_frac", t.BarrierWaitNs)
	per("node.page_fetches_per_op", t.PageFetches)
	frac("node.fault_wait_frac", t.FaultWaitNs)
	per("node.diff_pulls_per_op", t.DiffPulls)
	per("node.diffs_created_per_op", t.DiffsCreated)
	per("node.diff_bytes_per_op", t.DiffBytes)
	frac("node.flush_wait_frac", t.FlushWaitNs)
	per("node.msgs_per_op", t.MsgsSent)
	per("node.bytes_per_op", t.BytesSent)
	per("node.retries_per_op", t.RPCRetries+t.DupRequests+t.DupReplies)
	r.metric("node.max_msg_frac", median(o.maxMsgFrac), len(o.maxMsgFrac))

	rt := o.runtime
	rops := float64(o.runtimeOps)
	r.metric("runtime.alloc_bytes_per_op", ratio(float64(rt.allocBytes), rops), int(o.runtimeOps))
	r.metric("runtime.mallocs_per_op", ratio(float64(rt.mallocs), rops), int(o.runtimeOps))
	r.metric("runtime.gc_cpu_frac", ratio(rt.gcCPU, rt.totalCPU), 1)

	// Serving layer (kv only).
	var qp50, qp99, lockFrac, opsPerLock float64
	if o.serveHist != nil {
		qp50, qp99 = float64(o.serveHist.P50Ns)/1e3, float64(o.serveHist.P99Ns)/1e3
		served := float64(t.ServeGets + t.ServePuts)
		opsPerLock = ratio(served, float64(t.LockAcquires))
		lockFrac = ratio(float64(t.ServeLockWaitNs), float64(o.nodeNs)*float64(o.serveWorkers))
	}
	r.metric("serve.queue_exec_p50_us", qp50, int(ops))
	r.metric("serve.queue_exec_p99_us", qp99, int(ops))
	r.metric("serve.ops_per_lock", opsPerLock, int(t.LockAcquires))
	r.metric("serve.lock_wait_frac", lockFrac, int(ops))
	kvLayers(r, o.kv)

	return r.addTrace(o, opt)
}

// kvLayers reports the untraced open-loop latency split by op type and
// the generator's lateness, as medians over segments; all 0 for the apps.
func kvLayers(r *record, segs []segStat) {
	ops, gets, puts := segOps(segs)
	if segs != nil {
		r.metric("op_p90_us", segMedian(segs, func(s segStat) float64 { return s.all90 }), ops)
	}
	for _, f := range []struct {
		name string
		n    int
		get  func(segStat) float64
	}{
		{"kv.get_p50_us", gets, func(s segStat) float64 { return s.get50 }},
		{"kv.get_p99_us", gets, func(s segStat) float64 { return s.get99 }},
		{"kv.put_p50_us", puts, func(s segStat) float64 { return s.put50 }},
		{"kv.put_p99_us", puts, func(s segStat) float64 { return s.put99 }},
		{"loadgen.late_p99_us", gets + puts, func(s segStat) float64 { return s.late99 }},
	} {
		r.metric(f.name, segMedian(segs, f.get), f.n)
	}
	r.metric("loadgen.violations", float64(r.tally.violations), int(r.tally.attempted))
}

// addTrace computes the span- and frame-derived metrics of the traced
// run, prints its per-kind traffic table and writes its spans out.
func (r *record) addTrace(o *layerObs, opt *options) error {
	spans, dropped := o.tr.spans()
	if dropped > 0 {
		r.Notes = append(r.Notes, fmt.Sprintf("traced run: %d spans kept, %d dropped past the in-memory cap", len(spans), dropped))
	}
	pct := func(name string, kind uint8, q float64) {
		d := nsToFloat(durations(spans, kind), 1e3)
		if q > 0.5 {
			r.tail(name, d, q)
			return
		}
		r.metric(name, median(d), len(d))
	}
	pct("node.lock_us.p50", spanLock, 0.5)
	pct("node.lock_us.p99", spanLock, 0.99)
	pct("node.unlock_us.p50", spanUnlock, 0.5)
	pct("node.unlock_us.p99", spanUnlock, 0.99)
	pct("node.barrier_us.p50", spanBarrier, 0.5)
	pct("node.barrier_us.p99", spanBarrier, 0.99)

	self, covered, total := selfTimes(spans, spanRun)
	runs := len(durations(spans, spanRun))
	r.metric("trace.compute_frac", ratio(float64(self), float64(total)), runs)
	r.metric("trace.lock_frac", ratio(float64(covered[spanLock]+covered[spanUnlock]), float64(total)), runs)
	r.metric("trace.barrier_frac", ratio(float64(covered[spanBarrier]), float64(total)), runs)
	r.metric("trace.overhead_frac", o.overhead, int(o.tracedOps))

	tops := float64(o.tracedOps)
	for _, k := range trafficKinds {
		r.metric("transport.msgs_per_op."+k.String(), ratio(float64(o.tr.frames[k].Load()), tops), int(o.tracedOps))
		r.metric("transport.bytes_per_op."+k.String(), ratio(float64(o.tr.bytes[k].Load()), tops), int(o.tracedOps))
	}
	if n := o.tr.undec.Load(); n > 0 {
		return fmt.Errorf("traced run: %d frames failed to decode", n)
	}
	r.Notes = append(r.Notes, trafficTable(o.tr, tops))

	path, err := writeSpans(opt.traceDir, fmt.Sprintf("%s-seed%d", r.Workload, r.Seed), spans)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	r.Notes = append(r.Notes, fmt.Sprintf("spans written to %s", path))
	return nil
}

// trafficTable renders the traced run's frames and bytes per wire kind
// per op: the live counterpart of the paper's message breakdowns.
func trafficTable(tr *tracer, ops float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "traffic per op by wire kind (%.0f traced ops):\n", ops)
	fmt.Fprintf(&b, "  %-16s %12s %12s\n", "kind", "msgs/op", "bytes/op")
	var totM, totB float64
	for k := 0; k < len(tr.frames); k++ {
		m, by := float64(tr.frames[k].Load()), float64(tr.bytes[k].Load())
		if m == 0 {
			continue
		}
		totM += m
		totB += by
		fmt.Fprintf(&b, "  %-16s %12.3f %12.1f\n", wire.Kind(k), m/ops, by/ops)
	}
	fmt.Fprintf(&b, "  %-16s %12.3f %12.1f", "total", totM/ops, totB/ops)
	return b.String()
}

// printTables writes the record in human-readable form.
func printTables(w io.Writer, r *record) {
	p := r.Provenance
	fmt.Fprintf(w, "livebench %s seed=%d trace=%v seconds=%g  (nproc=%d GOMAXPROCS=%d %s, %s, commit %s)\n",
		r.Workload, r.Seed, r.Trace, r.Seconds, p.NProc, p.GOMAXPROCS, p.CPU, p.GoVersion, p.Commit)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		extra := ""
		if b, ok := r.Beyond[n]; ok {
			extra = fmt.Sprintf(", %d beyond", b)
		}
		fmt.Fprintf(w, "  %-36s %14.4f %-6s (n=%d%s)\n", n, m.Value, m.Unit, r.Samples[n], extra)
	}
	for k, v := range r.Work {
		fmt.Fprintf(w, "  work %-31s min %d max %d\n", k, v[0], v[1])
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, n)
	}
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
	for _, e := range r.Errors {
		fmt.Fprintln(w, "  error:", e)
	}
}
