package main

import (
	"encoding/json"
	"testing"

	"lrcdsm/internal/live"
	"lrcdsm/internal/serve/hist"
	"lrcdsm/internal/serve/loadgen"
)

// TestJSONReportCarriesServeHistograms requires the serving-side
// latency summaries (serve_hist, load.latency) to survive the -json
// round trip with their quantiles.
func TestJSONReportCarriesServeHistograms(t *testing.T) {
	var h hist.Hist
	h.Record(1000)
	rep := serveReport{
		Nodes: 2, Protocol: "LH", Transport: "inproc", Route: "affinity",
		Keys: 64, KeysPerPage: 8, Shards: 4, ServeWorkers: 2,
		Load: &loadgen.Result{
			Mix: loadgen.Mix{Name: "probe", ReadFrac: 0.5, Dist: "uniform"},
			Ops: 1, Latency: h.Summarize(),
		},
		ServeHist: h.Summarize(),
		Stats:     &live.Stats{},
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		ServeHist map[string]any `json:"serve_hist"`
		Load      struct {
			Latency map[string]any `json:"latency"`
		} `json:"load"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	for _, probe := range []struct {
		name string
		m    map[string]any
	}{
		{"serve_hist", got.ServeHist},
		{"load.latency", got.Load.Latency},
	} {
		if probe.m == nil {
			t.Errorf("%s missing from dsmserve -json output", probe.name)
			continue
		}
		for _, q := range []string{"count", "p50_ns", "p99_ns", "p999_ns"} {
			if _, ok := probe.m[q]; !ok {
				t.Errorf("%s lacks quantile %q", probe.name, q)
			}
		}
	}
}
