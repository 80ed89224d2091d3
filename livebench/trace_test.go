package main

import (
	"testing"
	"time"

	"lrcdsm/internal/core"
)

func TestSelfTimeArithmetic(t *testing.T) {
	const root = 1
	spans := []span{
		{ID: root, Kind: spanRun, Start: 0, End: 100},
		// Two overlapping lock spans cover [10, 40) once: 30.
		{ID: 2, Parent: root, Kind: spanLock, Start: 10, End: 30},
		{ID: 3, Parent: root, Kind: spanLock, Start: 20, End: 40},
		// A barrier running past the parent's end counts only inside it.
		{ID: 4, Parent: root, Kind: spanBarrier, Start: 90, End: 120},
		// A child of another parent does not count.
		{ID: 5, Parent: 99, Kind: spanLock, Start: 50, End: 60},
		// A second run span with one unlock child.
		{ID: 6, Kind: spanRun, Start: 200, End: 250},
		{ID: 7, Parent: 6, Kind: spanUnlock, Start: 210, End: 215},
	}
	self, covered, total := selfTimes(spans, spanRun)
	if total != 150 {
		t.Errorf("total = %d, want 150", total)
	}
	// Run 1: 100 - (30 lock + 10 barrier) = 60; run 2: 50 - 5 = 45.
	if self != 105 {
		t.Errorf("self = %d, want 105", self)
	}
	if covered[spanLock] != 30 || covered[spanBarrier] != 10 || covered[spanUnlock] != 5 {
		t.Errorf("covered lock/barrier/unlock = %d/%d/%d, want 30/10/5",
			covered[spanLock], covered[spanBarrier], covered[spanUnlock])
	}
}

// fakeWorker is a core.Worker that counts its calls.
type fakeWorker struct {
	id                   int
	locks, unlocks, bars int
}

func (w *fakeWorker) ID() int                     { return w.id }
func (w *fakeWorker) N() int                      { return 2 }
func (w *fakeWorker) ReadF64(core.Addr) float64   { return 0 }
func (w *fakeWorker) WriteF64(core.Addr, float64) {}
func (w *fakeWorker) ReadI64(core.Addr) int64     { return 0 }
func (w *fakeWorker) WriteI64(core.Addr, int64)   {}
func (w *fakeWorker) ReadU64(core.Addr) uint64    { return 0 }
func (w *fakeWorker) WriteU64(core.Addr, uint64)  {}
func (w *fakeWorker) Compute(int64)               {}
func (w *fakeWorker) Lock(int)                    { w.locks++ }
func (w *fakeWorker) Unlock(int)                  { w.unlocks++ }
func (w *fakeWorker) Barrier(int)                 { w.bars++ }

// fakeNode adds the optional hooks internal/serve looks for.
type fakeNode struct {
	fakeWorker
	lanes     []*fakeNode
	served    int64
	replaying bool
}

func (n *fakeNode) LaneWorker(lane int) core.Worker {
	l := &fakeNode{fakeWorker: fakeWorker{id: n.id}}
	n.lanes = append(n.lanes, l)
	return l
}
func (n *fakeNode) CountServe(gets, puts, _ int64) { n.served += gets + puts }
func (n *fakeNode) Replaying() bool                { return n.replaying }

func TestTracedWorkerForwardsServeHooks(t *testing.T) {
	tr := newTracer(1000)
	inner := &fakeNode{fakeWorker: fakeWorker{id: 1}, replaying: true}
	w := tr.wrap(inner, 1, 0)
	ln, ok := w.(laneHook)
	if !ok {
		t.Fatal("traced node hides LaneWorker: serve executors would lose their token lanes")
	}
	sc, ok := w.(serveHook)
	if !ok {
		t.Fatal("traced node hides CountServe")
	}
	rp, ok := w.(replayHook)
	if !ok || !rp.Replaying() {
		t.Fatal("traced node hides or misreports Replaying")
	}
	sc.CountServe(2, 3, 0)
	if inner.served != 5 {
		t.Errorf("CountServe forwarded %d ops, want 5", inner.served)
	}
	lw := ln.LaneWorker(1)
	lw.Lock(7)
	lw.Unlock(7)
	if len(inner.lanes) != 1 || inner.lanes[0].locks != 1 || inner.lanes[0].unlocks != 1 {
		t.Fatal("lane worker calls did not reach the node's lane")
	}
	if _, ok := lw.(laneHook); !ok {
		t.Error("a traced lane worker hides the hooks of the lane it wraps")
	}
	spans, _ := tr.spans()
	if len(spans) != 2 || spans[0].Kind != spanLock || spans[1].Kind != spanUnlock {
		t.Errorf("lane worker recorded %+v, want a lock and an unlock span", spans)
	}

	plain := tr.wrap(&fakeWorker{}, 0, 0)
	if _, ok := plain.(laneHook); ok {
		t.Error("a traced plain worker claims LaneWorker it cannot serve")
	}
	if _, ok := plain.(serveHook); ok {
		t.Error("a traced plain worker claims CountServe")
	}
}

// TestTracedServeClusterKeepsHooks runs a real serving cluster under the
// tracer: the serve counters (CountServe) must still count every op, and
// executor lanes must record their own lock spans.
func TestTracedServeClusterKeepsHooks(t *testing.T) {
	tr := newTracer(1 << 22)
	spec := &kvSpec{route: "any", readFrac: 0.5, dist: "uniform", rate: 1000}
	k, err := startKV(spec, tr)
	if err != nil {
		t.Fatal(err)
	}
	acc := &tally{}
	load := newKVLoad(spec, 1, acc)
	load.reset()
	ops, _ := load.closed(driverFor(k.srv, tr), time.Now().Add(100*time.Millisecond))
	swept := load.sweep(k.srv)
	if err := k.stop(); err != nil {
		t.Fatal(err)
	}
	if served := k.stats.Total.ServeGets + k.stats.Total.ServePuts; served != ops+swept+1 {
		t.Errorf("serve counters saw %d ops, load issued %d (+%d sweep +1 first get)", served, ops, swept)
	}
	spans, _ := tr.spans()
	runs, locks, reqs := 0, 0, 0
	for _, s := range spans {
		switch s.Kind {
		case spanRun:
			runs++
		case spanLock:
			locks++
		case spanReq:
			reqs++
		}
	}
	if runs != 2 || locks == 0 || int64(reqs) != ops {
		t.Errorf("spans: %d run, %d lock, %d req; want 2 run, some lock, %d req", runs, locks, reqs, ops)
	}
	if tr.frames[0].Load() != 0 || tr.undec.Load() != 0 {
		t.Error("transport wrapper saw frames it could not classify")
	}
}

// TestRunSpansSurviveTheQuota: once the span quota is used up, child
// spans are dropped but the run span they belong to is still kept.
func TestRunSpansSurviveTheQuota(t *testing.T) {
	tr := newTracer(1)
	tr.runWorker(func(w core.Worker) {
		for i := 0; i < 3; i++ {
			w.Lock(0)
		}
	})(&fakeWorker{})
	spans, dropped := tr.spans()
	if len(spans) != 2 || dropped != 2 {
		t.Fatalf("kept %d spans, dropped %d; want a lock and the run span kept, 2 dropped", len(spans), dropped)
	}
	run, lock := spans[0], spans[1]
	if run.Kind != spanRun || lock.Kind != spanLock || lock.Parent != run.ID {
		t.Errorf("spans %+v: want the run span and one lock under it", spans)
	}
}
