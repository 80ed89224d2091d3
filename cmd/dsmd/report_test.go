package main

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"lrcdsm/internal/live"
	"lrcdsm/internal/live/node"
)

// TestJSONReportCarriesEveryStatsCounter checks the -json report end to
// end: a distinct value in every node.Stats field comes back out of the
// report's stats.total object under that field's json tag, so no
// counter is missing from the output. (Tag presence and uniqueness are
// checked on the struct itself in the node package.)
func TestJSONReportCarriesEveryStatsCounter(t *testing.T) {
	var total node.Stats
	rv := reflect.ValueOf(&total).Elem()
	for i := 0; i < rv.NumField(); i++ {
		rv.Field(i).SetInt(int64(i + 1))
	}
	rep := runReport{App: "probe", Scale: "test", Transport: "inproc",
		Stats: &live.Stats{PerNode: []node.Stats{total}, Total: total}}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Stats struct {
			Total map[string]any `json:"total"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	typ := rv.Type()
	if len(got.Stats.Total) != typ.NumField() {
		t.Errorf("stats.total has %d keys, node.Stats has %d fields", len(got.Stats.Total), typ.NumField())
	}
	for i := 0; i < typ.NumField(); i++ {
		tag := strings.Split(typ.Field(i).Tag.Get("json"), ",")[0]
		v, ok := got.Stats.Total[tag]
		if !ok {
			t.Errorf("counter %s (json %q) missing from stats.total", typ.Field(i).Name, tag)
			continue
		}
		if f, ok := v.(float64); !ok || int64(f) != int64(i+1) {
			t.Errorf("counter %s (json %q) = %v in report, want %d", typ.Field(i).Name, tag, v, i+1)
		}
	}
}
