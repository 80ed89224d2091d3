package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metrics
// and workloads this program reports in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []entry, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d, the program %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer())
	var ws []struct{ name, unit string }
	for _, w := range workloads {
		ws = append(ws, struct{ name, unit string }{w.name, ""})
	}
	check("workloads", spec.Workloads, ws)
}
