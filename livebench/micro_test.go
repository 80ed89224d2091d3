package main

import "testing"

// TestMicroSelfChecks runs every layer microbenchmark at a small scale:
// each must pass its own result check and report its metrics.
func TestMicroSelfChecks(t *testing.T) {
	r, err := runMicro(0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"node.read_hit_ns", "node.write_hit_ns", "node.lock_local_ns", "node.handoff_us",
		"node.msgs_per_handoff", "node.barrier_us", "node.fault_us", "wire.encode_ns.page-reply",
		"wire.decode_ns.lock-req", "transport.inproc_hop_ns.4KB", "page.makediff_ns.dense",
		"page.apply_ns", "fit.msg_fixed_us", "fit.msg_per_kb_us",
	} {
		if v, ok := r.m[name]; !ok || v <= 0 {
			t.Errorf("%s = %g (reported %v), want > 0", name, v, ok)
		}
	}
	if _, ok := r.m["node.diff_pull_us"]; !ok {
		t.Error("node.diff_pull_us not reported")
	}
}
