package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lrcdsm/internal/core"
	"lrcdsm/internal/live/transport"
	"lrcdsm/internal/live/wire"
	"lrcdsm/internal/serve/loadgen"
)

// Span kinds recorded by the traced run. Every span sits at a boundary
// between the benchmark and one layer of the program: the node worker
// (run), the lock plane (lock, unlock), the barrier, and the serving
// front end (req, one per load-generator request).
const (
	spanRun uint8 = iota
	spanLock
	spanUnlock
	spanBarrier
	spanReq
	nSpanKinds
)

var spanNames = [nSpanKinds]string{"run", "lock", "unlock", "barrier", "req"}

// span is one recorded interval. Times are nanoseconds since the tracer
// started; Parent is 0 for a root span; Req identifies the request a req
// span served (client<<32 | sequence).
type span struct {
	ID, Parent uint64
	Req        uint64
	Node       int32
	Kind       uint8
	Start, End int64
}

// tracer collects spans in per-goroutine buffers (no locking on the hot
// path) and frame counts per wire kind from wrapped transports. Buffers
// are read only after the traced run has finished.
type tracer struct {
	t0    time.Time
	quota atomic.Int64 // spans still allowed; buffers reserve in chunks

	mu   sync.Mutex
	bufs []*spanBuf

	frames [256]atomic.Int64
	bytes  [256]atomic.Int64
	undec  atomic.Int64 // frames the wire codec rejected
}

type spanBuf struct {
	id      uint64 // high bits of every span ID from this buffer
	seq     uint64
	spans   []span
	room    int // spans reserved from the tracer's quota, not yet used
	dropped int64
}

// spanChunk is how many spans a buffer reserves from the shared quota at
// once, so recording touches the shared counter rarely.
const spanChunk = 1024

// newTracer keeps at most limit spans in memory; later ones are counted
// as dropped.
func newTracer(limit int64) *tracer {
	t := &tracer{t0: time.Now()}
	t.quota.Store(limit)
	return t
}

// full reports whether the span quota is used up.
func (t *tracer) full() bool { return t.quota.Load() <= 0 }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) newBuf() *spanBuf {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := &spanBuf{id: uint64(len(t.bufs)+1) << 40}
	t.bufs = append(t.bufs, b)
	return b
}

// nextID reserves a span ID without recording the span yet (a parent
// span's ID must be known before its children end).
func (b *spanBuf) nextID() uint64 {
	b.seq++
	return b.id | b.seq
}

func (b *spanBuf) add(t *tracer, s span) {
	if b.room == 0 {
		left := t.quota.Add(-spanChunk) + spanChunk // quota before this reservation
		if left <= 0 {
			b.dropped++
			return
		}
		b.room = int(min(left, spanChunk))
	}
	b.room--
	b.spans = append(b.spans, s)
}

// keep records s outside the quota: run spans are few, and every child
// span kept needs its parent for the self-time arithmetic.
func (b *spanBuf) keep(s span) { b.spans = append(b.spans, s) }

// spans returns every recorded span, and how many were dropped.
func (t *tracer) spans() ([]span, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var all []span
	var dropped int64
	for _, b := range t.bufs {
		all = append(all, b.spans...)
		dropped += b.dropped
	}
	return all, dropped
}

// ---- worker wrapper ----

// tracedWorker wraps the core.Worker an app or serving node runs on,
// recording Lock/Unlock/Barrier spans under the worker's run span.
type tracedWorker struct {
	core.Worker
	t      *tracer
	buf    *spanBuf
	node   int32
	parent uint64
}

func (w *tracedWorker) timed(kind uint8, f func()) {
	s := span{ID: w.buf.nextID(), Parent: w.parent, Node: w.node, Kind: kind, Start: w.t.now()}
	f()
	s.End = w.t.now()
	w.buf.add(w.t, s)
}

func (w *tracedWorker) Lock(id int)    { w.timed(spanLock, func() { w.Worker.Lock(id) }) }
func (w *tracedWorker) Unlock(id int)  { w.timed(spanUnlock, func() { w.Worker.Unlock(id) }) }
func (w *tracedWorker) Barrier(id int) { w.timed(spanBarrier, func() { w.Worker.Barrier(id) }) }

// The optional node hooks internal/serve type-asserts on its worker. A
// wrapper that hid them would run executors without token lanes and
// without serving counters: a different program from the untraced one.
type (
	laneHook  interface{ LaneWorker(lane int) core.Worker }
	serveHook interface {
		CountServe(gets, puts, lockWaitNs int64)
	}
	replayHook  interface{ Replaying() bool }
	serveHooked interface {
		core.Worker
		laneHook
		serveHook
		replayHook
	}
)

// tracedNode is a tracedWorker that also forwards the serve hooks; lane
// workers it hands out are traced too, each with its own span buffer.
type tracedNode struct {
	*tracedWorker
	inner serveHooked
}

func (w *tracedNode) LaneWorker(lane int) core.Worker {
	return w.t.wrap(w.inner.LaneWorker(lane), w.node, w.parent)
}
func (w *tracedNode) CountServe(gets, puts, lockWaitNs int64) {
	w.inner.CountServe(gets, puts, lockWaitNs)
}
func (w *tracedNode) Replaying() bool { return w.inner.Replaying() }

// wrap returns a traced view of w whose spans are children of parent.
// The result implements the serve hooks exactly when w implements all
// of them.
func (t *tracer) wrap(w core.Worker, node int32, parent uint64) core.Worker {
	tw := &tracedWorker{Worker: w, t: t, buf: t.newBuf(), node: node, parent: parent}
	if h, ok := w.(serveHooked); ok {
		return &tracedNode{tracedWorker: tw, inner: h}
	}
	return tw
}

// runWorker wraps a cluster worker function: each node's call becomes a
// run span, and the worker it runs on records its sync spans under it.
func (t *tracer) runWorker(f func(core.Worker)) func(core.Worker) {
	return func(w core.Worker) {
		buf := t.newBuf()
		root := span{ID: buf.nextID(), Node: int32(w.ID()), Kind: spanRun, Start: t.now()}
		f(t.wrap(w, root.Node, root.ID))
		root.End = t.now()
		buf.keep(root)
	}
}

// ---- driver wrapper ----

// tracedDriver wraps the serving front end as the load generator sees
// it: one req span per operation. One per load-generator goroutine.
type tracedDriver struct {
	loadgen.Driver
	t   *tracer
	buf *spanBuf
	req uint64 // set by the caller before each Do
}

func (t *tracer) wrapDriver(d loadgen.Driver) *tracedDriver {
	return &tracedDriver{Driver: d, t: t, buf: t.newBuf()}
}

func (d *tracedDriver) Do(put bool, key, val uint64) (uint64, error) {
	s := span{ID: d.buf.nextID(), Req: d.req, Node: -1, Kind: spanReq, Start: d.t.now()}
	v, err := d.Driver.Do(put, key, val)
	s.End = d.t.now()
	d.buf.add(d.t, s)
	return v, err
}

// ---- transport wrapper ----

// tracedTransport counts every sent frame and its bytes per wire kind,
// decoding a copy so the frame handed on is untouched.
type tracedTransport struct {
	transport.Transport
	t *tracer
}

func (t *tracer) wrapTransports(trs []transport.Transport) []transport.Transport {
	out := make([]transport.Transport, len(trs))
	for i, tr := range trs {
		out[i] = &tracedTransport{Transport: tr, t: t}
	}
	return out
}

func (tr *tracedTransport) Send(to int, payload []byte) error {
	m, err := wire.Decode(append([]byte(nil), payload...))
	if err != nil {
		tr.t.undec.Add(1)
	} else {
		tr.t.frames[m.Kind].Add(1)
		tr.t.bytes[m.Kind].Add(int64(len(payload)))
	}
	return tr.Transport.Send(to, payload)
}

// ---- analysis ----

// selfTimes sums, over every span of the given kind, its duration minus
// the part of it its children cover (overlapping children count once).
// It also returns, per child kind, the covered time within those spans
// (again counting overlaps once per kind) and the spans' total duration.
func selfTimes(spans []span, kind uint8) (self int64, covered [nSpanKinds]int64, total int64) {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, p := range spans {
		if p.Kind != kind {
			continue
		}
		dur := p.End - p.Start
		total += dur
		kids := children[p.ID]
		self += dur - unionWithin(kids, p.Start, p.End, nil)
		for k := uint8(0); k < nSpanKinds; k++ {
			kk := k
			covered[k] += unionWithin(kids, p.Start, p.End, func(s span) bool { return s.Kind == kk })
		}
	}
	return self, covered, total
}

// unionWithin is the length of the union of the spans' intervals (those
// keep accepts, or all when keep is nil), clipped to [lo, hi).
func unionWithin(spans []span, lo, hi int64, keep func(span) bool) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, s := range spans {
		if keep != nil && !keep(s) {
			continue
		}
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, curA, curB int64
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			curB = max(curB, v.b)
			continue
		}
		if open {
			sum += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		sum += curB - curA
	}
	return sum
}

// durations returns the durations (ns) of every span of one kind.
func durations(spans []span, kind uint8) []int64 {
	var out []int64
	for _, s := range spans {
		if s.Kind == kind {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// writeSpans writes the spans as gzipped tab-separated lines (id, parent,
// req, node, kind, start_ns, end_ns) into dir, returning the file path.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".spans.tsv.gz")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "id\tparent\treq\tnode\tkind\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(bw, "%x\t%x\t%x\t%d\t%s\t%d\t%d\n", s.ID, s.Parent, s.Req, s.Node, spanNames[s.Kind], s.Start, s.End)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
