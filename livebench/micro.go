package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"lrcdsm/internal/core"
	"lrcdsm/internal/live"
	"lrcdsm/internal/live/transport"
	"lrcdsm/internal/live/wire"
	"lrcdsm/internal/page"
)

// Layer microbenchmarks. Each times calls into one layer's public API,
// reports a median over batches or rounds, and checks its own result:
// values read back, frames decode to what was encoded, counters show the
// path taken was the one meant.

const pageSize = core.DefaultPageSize

// microResult holds the micro metrics (name -> value) and the numbers
// behind the message-cost fit.
type microResult struct {
	m       map[string]float64
	samples map[string]int
	fitPts  [][2]float64 // (frame KB, encode+decode+hop ns)
}

func (r *microResult) set(name string, v float64, n int) {
	r.m[name] = v
	r.samples[name] = n
}

// wireKinds are the frames the wire micro times: the lock plane's
// request and grant, the LH diff reply, a full 4 KB page reply, a
// barrier arrival and a release's write notices.
var wireKinds = []wire.Kind{wire.KLockReq, wire.KLockGrant, wire.KDiffReply, wire.KPageReply, wire.KBarArrive, wire.KWriteNotices}

// sampleFrame returns a representative two-node message of kind k.
func sampleFrame(k wire.Kind) *wire.Msg {
	vt := []int32{6, 7}
	diff := page.Diff{Page: 1, Runs: []page.Run{{Off: 64, Words: []uint64{1, 2, 3}}, {Off: 1024, Words: []uint64{0xdeadbeef}}}}
	ival := &wire.Interval{Writer: 1, Index: 7, VT: vt, Pages: []int32{1}}
	switch k {
	case wire.KLockReq:
		return &wire.Msg{Kind: k, From: 1, Token: 77, Lock: 3, VT: vt}
	case wire.KLockGrant:
		return &wire.Msg{Kind: k, From: 0, Token: 77, Lock: 3, VT: vt, Notices: []wire.Notice{{Writer: 0, Index: 6, Pages: []int32{1, 2}}}}
	case wire.KDiffReply:
		return &wire.Msg{Kind: k, From: 1, Token: 78, Page: 1, VT: vt, Diffs: []wire.Diff{{Writer: 0, Index: 6, D: diff}}}
	case wire.KPageReply:
		return &wire.Msg{Kind: k, From: 1, Token: 79, Page: 1, VT: vt, Data: bytes.Repeat([]byte{0xab}, pageSize)}
	case wire.KBarArrive:
		return &wire.Msg{Kind: k, From: 1, Token: 80, Barrier: 0, Episode: 5, VT: vt, Notices: []wire.Notice{{Writer: 1, Index: 7, Pages: []int32{1}}}, Interval: ival}
	case wire.KWriteNotices:
		return &wire.Msg{Kind: k, From: 1, Token: 81, Episode: 5, Diffs: []wire.Diff{{Writer: 1, Index: 7, D: diff}}, Interval: ival}
	}
	panic(fmt.Sprintf("no sample frame for %v", k))
}

// batchMedian runs f (which performs n operations) batches times and
// returns the median per-operation time in ns.
func batchMedian(batches, n int, f func(n int)) float64 {
	per := make([]float64, batches)
	for b := range per {
		t0 := time.Now()
		f(n)
		per[b] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// mallocsPer reports heap allocations per call of f over n calls.
func mallocsPer(n int, f func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// runMicro runs every layer microbenchmark. scale multiplies the
// iteration counts (1 takes about two seconds on a 2-CPU host).
func runMicro(scale float64) (*microResult, error) {
	r := &microResult{m: map[string]float64{}, samples: map[string]int{}}
	n := func(base int) int { return max(1, int(float64(base)*scale)) }
	steps := []func(*microResult, func(int) int) error{
		microAccessAndLocalLock, microHandoffBarrier, microFault, microDiffPull, microWire, microHop, microPage,
	}
	for _, step := range steps {
		if err := step(r, n); err != nil {
			return nil, err
		}
	}
	// The per-message software cost fit, in the paper's terms: a fixed
	// cost per message plus a cost per KB moved.
	var xs, ys []float64
	for _, p := range r.fitPts {
		xs = append(xs, p[0])
		ys = append(ys, p[1])
	}
	a, b := linFit(xs, ys)
	r.set("fit.msg_fixed_us", a/1e3, len(xs))
	r.set("fit.msg_per_kb_us", b/1e3, len(xs))
	return r, nil
}

// twoNodes builds a 2-node cluster, lets configure allocate, and runs the
// per-node worker functions (a nil entry returns at once).
func twoNodes(prot core.Protocol, configure func(*live.Cluster), workers [2]func(core.Worker) error) (*live.Stats, error) {
	cl, err := live.New(live.Config{Nodes: 2, Protocol: prot})
	if err != nil {
		return nil, err
	}
	configure(cl)
	var errs [2]error
	st, err := cl.Run(func(w core.Worker) {
		if f := workers[w.ID()]; f != nil {
			errs[w.ID()] = f(w)
		}
	})
	if err != nil {
		return nil, err
	}
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	return st, nil
}

// microAccessAndLocalLock times shared-access hits on a valid, already
// twinned page homed at the other node, and lock/unlock pairs of a lock
// this node already owns.
func microAccessAndLocalLock(r *microResult, n func(int) int) error {
	var base core.Addr
	var lk int
	const words = pageSize / 8
	batches, per, lockPer := 15, n(40000), n(20000)
	var readNs, writeNs, lockNs float64
	st, err := twoNodes(core.LH, func(cl *live.Cluster) {
		base = cl.AllocPage(2 * pageSize) // page 0 homed at node 0, page 1 at node 1
		lk = cl.NewLock()                 // lock 0: homed at node 0
	}, [2]func(core.Worker) error{func(w core.Worker) error {
		a := base + pageSize
		w.WriteU64(a, 1) // fault the page in and twin it
		var sink uint64
		readNs = batchMedian(batches, per, func(k int) {
			for i := 0; i < k; i++ {
				sink += w.ReadU64(a + core.Addr(8*(i%words)))
			}
		})
		writeNs = batchMedian(batches, per, func(k int) {
			for i := 0; i < k; i++ {
				w.WriteU64(a+core.Addr(8*(i%words)), uint64(i))
			}
		})
		last := per - 1
		if got := w.ReadU64(a + core.Addr(8*(last%words))); got != uint64(last) {
			return fmt.Errorf("access micro: read back %d, wrote %d", got, last)
		}
		w.Lock(lk)
		w.Unlock(lk)
		lockNs = batchMedian(batches, lockPer, func(k int) {
			for i := 0; i < k; i++ {
				w.Lock(lk)
				w.Unlock(lk)
			}
		})
		_ = sink
		return nil
	}, nil})
	if err != nil {
		return fmt.Errorf("access micro: %w", err)
	}
	if got, want := st.PerNode[0].LockLocalAcquires, int64(batches*lockPer); got < want {
		return fmt.Errorf("local lock micro: %d local acquires, want >= %d", got, want)
	}
	r.set("node.read_hit_ns", readNs, batches)
	r.set("node.write_hit_ns", writeNs, batches)
	r.set("node.lock_local_ns", lockNs, batches)
	return nil
}

// microHandoffBarrier alternates a lock between the two nodes, one
// acquire per round separated by barriers, and runs the same rounds with
// barriers alone. The message difference over the handoffs gives the
// messages one handoff costs.
func microHandoffBarrier(r *microResult, n func(int) int) error {
	rounds := n(3000)
	var lk, bar int
	conf := func(cl *live.Cluster) {
		cl.Alloc(8)
		lk = cl.NewLock()
		bar = cl.NewBarrier()
	}
	var lockNs [2][]int64
	handoff := func(w core.Worker) error {
		id := w.ID()
		for i := 0; i < rounds; i++ {
			if i%2 == id {
				t0 := time.Now()
				w.Lock(lk)
				lockNs[id] = append(lockNs[id], time.Since(t0).Nanoseconds())
				w.Unlock(lk)
			}
			w.Barrier(bar)
		}
		return nil
	}
	hs, err := twoNodes(core.LH, conf, [2]func(core.Worker) error{handoff, handoff})
	if err != nil {
		return fmt.Errorf("handoff micro: %w", err)
	}
	var barNs []int64
	barrierOnly := func(w core.Worker) error {
		for i := 0; i < rounds; i++ {
			t0 := time.Now()
			w.Barrier(bar)
			if w.ID() == 0 {
				barNs = append(barNs, time.Since(t0).Nanoseconds())
			}
		}
		return nil
	}
	bs, err := twoNodes(core.LH, conf, [2]func(core.Worker) error{barrierOnly, barrierOnly})
	if err != nil {
		return fmt.Errorf("barrier micro: %w", err)
	}
	if hs.Total.LockHandoffs < int64(rounds-1) || bs.Total.BarrierEpisodes < int64(2*rounds) {
		return fmt.Errorf("handoff micro: %d handoffs over %d rounds, %d barrier episodes",
			hs.Total.LockHandoffs, rounds, bs.Total.BarrierEpisodes)
	}
	all := append(append([]int64(nil), lockNs[0]...), lockNs[1]...)
	r.set("node.handoff_us", median(nsToFloat(all, 1e3)), len(all))
	r.set("node.msgs_per_handoff", float64(hs.Total.MsgsSent-bs.Total.MsgsSent)/float64(hs.Total.LockHandoffs), rounds)
	r.set("node.barrier_us", median(nsToFloat(barNs, 1e3)), len(barNs))
	return nil
}

// readerRounds runs rounds in which node 1 writes a word of its own home
// page and node 0, after a barrier, reads it back through the protocol.
// sampleAfter decides what node 0 times: the read (LI fault) or the
// barrier that carried the write notice (LH diff pull). Each round ends
// with a second barrier, timed as the no-pull control.
func readerRounds(prot core.Protocol, rounds int, timeBarrier bool) (first, second []int64, st *live.Stats, err error) {
	var base core.Addr
	var bar int
	st, err = twoNodes(prot, func(cl *live.Cluster) {
		base = cl.AllocPage(2 * pageSize)
		bar = cl.NewBarrier()
	}, [2]func(core.Worker) error{
		func(w core.Worker) error {
			a := base + pageSize
			w.ReadU64(a) // cache the page
			w.Barrier(bar)
			for i := 0; i < rounds; i++ {
				t0 := time.Now()
				w.Barrier(bar)
				tb := time.Now()
				v := w.ReadU64(a)
				tr := time.Now()
				if v != uint64(i+1) {
					return fmt.Errorf("read %d after write %d", v, i+1)
				}
				if timeBarrier {
					first = append(first, tb.Sub(t0).Nanoseconds())
				} else {
					first = append(first, tr.Sub(tb).Nanoseconds())
				}
				t1 := time.Now()
				w.Barrier(bar)
				second = append(second, time.Since(t1).Nanoseconds())
			}
			return nil
		},
		func(w core.Worker) error {
			a := base + pageSize
			w.Barrier(bar)
			for i := 0; i < rounds; i++ {
				w.WriteU64(a, uint64(i+1))
				w.Barrier(bar)
				w.Barrier(bar)
			}
			return nil
		},
	})
	return first, second, st, err
}

// microFault times an LI read fault: a full 4 KB page fetched from its
// home after a write notice invalidated the cached copy.
func microFault(r *microResult, n func(int) int) error {
	rounds := n(1500)
	faults, _, st, err := readerRounds(core.LI, rounds, false)
	if err != nil {
		return fmt.Errorf("fault micro: %w", err)
	}
	if got := st.PerNode[0].PageFetches; got < int64(rounds) {
		return fmt.Errorf("fault micro: %d page fetches over %d rounds", got, rounds)
	}
	r.set("node.fault_us", median(nsToFloat(faults, 1e3)), len(faults))
	return nil
}

// microDiffPull times the LH diff pull: the barrier that carries a write
// notice for a cached page, less the same barrier with nothing to pull.
func microDiffPull(r *microResult, n func(int) int) error {
	rounds := n(1500)
	pull, plain, st, err := readerRounds(core.LH, rounds, true)
	if err != nil {
		return fmt.Errorf("diff-pull micro: %w", err)
	}
	if got := st.PerNode[0].DiffPulls; got < int64(rounds) {
		return fmt.Errorf("diff-pull micro: %d pulls over %d rounds", got, rounds)
	}
	if f := st.PerNode[0].PageFetches; f > 1 {
		return fmt.Errorf("diff-pull micro: %d full page fetches, want only the first", f)
	}
	r.set("node.diff_pull_us", median(nsToFloat(pull, 1e3))-median(nsToFloat(plain, 1e3)), len(pull))
	return nil
}

// microWire times Encode and Decode per kind, counts their allocations,
// and checks every frame round-trips.
func microWire(r *microResult, n func(int) int) error {
	per := n(3000)
	for _, k := range wireKinds {
		m := sampleFrame(k)
		frame := wire.Encode(m)
		got, err := wire.Decode(frame)
		if err != nil {
			return fmt.Errorf("wire micro: decode %v: %w", k, err)
		}
		if !reflect.DeepEqual(m, got) {
			return fmt.Errorf("wire micro: %v decodes to %+v, encoded %+v", k, got, m)
		}
		var sink int
		enc := batchMedian(15, per, func(c int) {
			for i := 0; i < c; i++ {
				sink += len(wire.Encode(m))
			}
		})
		dec := batchMedian(15, per, func(c int) {
			for i := 0; i < c; i++ {
				d, _ := wire.Decode(frame)
				sink += int(d.Token)
			}
		})
		allocs := mallocsPer(per, func() {
			d, _ := wire.Decode(wire.Encode(m))
			sink += int(d.Token)
		})
		_ = sink
		r.set("wire.encode_ns."+k.String(), enc, 15)
		r.set("wire.decode_ns."+k.String(), dec, 15)
		r.set("wire.allocs."+k.String(), allocs, per)
		hop, err := hopNs(len(frame), n(4000))
		if err != nil {
			return err
		}
		r.fitPts = append(r.fitPts, [2]float64{float64(len(frame)) / 1024, enc + dec + hop})
	}
	return nil
}

// hopNs is the one-way in-process transport hop for a payload of size
// bytes: half the median round trip of a ping-pong with an echo peer.
func hopNs(size, trips int) (float64, error) {
	trs := transport.NewInprocNetwork(2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			f, err := trs[1].Recv()
			if err != nil {
				return
			}
			if trs[1].Send(0, f.Payload) != nil {
				return
			}
		}
	}()
	defer func() {
		trs[0].Close()
		trs[1].Close()
		<-done
	}()
	want := make([]byte, size)
	rand.New(rand.NewSource(int64(size))).Read(want)
	buf := append([]byte(nil), want...)
	var err error
	rt := batchMedian(15, trips/15+1, func(c int) {
		for i := 0; i < c && err == nil; i++ {
			if err = trs[0].Send(1, buf); err != nil {
				return
			}
			var f transport.Frame
			if f, err = trs[0].Recv(); err != nil {
				return
			}
			buf = f.Payload
		}
	})
	if err != nil {
		return 0, fmt.Errorf("hop micro: %w", err)
	}
	if !bytes.Equal(buf, want) {
		return 0, fmt.Errorf("hop micro: %d-byte payload changed in flight", size)
	}
	return rt / 2, nil
}

func microHop(r *microResult, n func(int) int) error {
	for _, c := range []struct {
		name string
		size int
	}{{"64B", 64}, {"4KB", 4096}} {
		ns, err := hopNs(c.size, n(15000))
		if err != nil {
			return err
		}
		r.set("transport.inproc_hop_ns."+c.name, ns, 15)
	}
	return nil
}

// microPage times MakeDiff on a 4 KB page with eight scattered words
// changed (sparse) and with every word changed (dense), and Apply of the
// sparse diff; both diffs must rebuild the current page from the twin.
func microPage(r *microResult, n func(int) int) error {
	per := n(4000)
	rng := rand.New(rand.NewSource(7))
	twin := make([]byte, pageSize)
	rng.Read(twin)
	sparse := append([]byte(nil), twin...)
	for i := 0; i < 8; i++ {
		page.Buf(sparse).PutU64(8*rng.Intn(pageSize/8), rng.Uint64())
	}
	dense := append([]byte(nil), twin...)
	for off := 0; off < pageSize; off += 8 {
		page.Buf(dense).PutU64(off, page.Buf(dense).U64(off)^0x5555)
	}
	for _, c := range []struct {
		name string
		cur  []byte
	}{{"sparse", sparse}, {"dense", dense}} {
		d := page.MakeDiff(1, twin, c.cur)
		dst := append([]byte(nil), twin...)
		d.Apply(dst)
		if !bytes.Equal(dst, c.cur) {
			return fmt.Errorf("page micro: %s diff does not rebuild the page", c.name)
		}
		var sink int
		ns := batchMedian(15, per, func(k int) {
			for i := 0; i < k; i++ {
				sink += len(page.MakeDiff(1, twin, c.cur).Runs)
			}
		})
		_ = sink
		r.set("page.makediff_ns."+c.name, ns, 15)
	}
	d := page.MakeDiff(1, twin, sparse)
	dst := append([]byte(nil), twin...)
	r.set("page.apply_ns", batchMedian(15, per, func(k int) {
		for i := 0; i < k; i++ {
			d.Apply(dst)
		}
	}), 15)
	if !bytes.Equal(dst, sparse) {
		return fmt.Errorf("page micro: repeated Apply changed the result")
	}
	return nil
}
