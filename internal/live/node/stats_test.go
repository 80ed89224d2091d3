package node_test

import (
	"reflect"
	"strings"
	"testing"

	"lrcdsm/internal/live/node"
)

// TestSnapshotCopiesEveryCounter checks what the struct walk behind
// Snapshot and Add relies on, then runs both over every counter:
//
//   - every field except Node is an int64, so the walk sees it;
//   - json tags are non-empty and unique, since encoding/json silently
//     drops both fields of a clashing tag from the -json reports;
//   - a distinct value in each counter survives Snapshot, Add sums it,
//     and neither treats Node as a counter.
func TestSnapshotCopiesEveryCounter(t *testing.T) {
	var s node.Stats
	v := reflect.ValueOf(&s).Elem()
	tags := map[string]string{} // json tag -> field name
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		tag := strings.Split(f.Tag.Get("json"), ",")[0]
		if tag == "" || tag == "-" {
			t.Errorf("Stats.%s has no json tag", f.Name)
		} else if prev, dup := tags[tag]; dup {
			t.Errorf("Stats.%s and Stats.%s share json tag %q", prev, f.Name, tag)
		}
		tags[tag] = f.Name
		if f.Name == "Node" {
			continue
		}
		if f.Type.Kind() != reflect.Int64 {
			t.Errorf("Stats.%s is %s, want int64", f.Name, f.Type)
			continue
		}
		v.Field(i).SetInt(int64(i + 1))
	}
	if t.Failed() {
		return
	}
	s.Node = 7

	snap := s.Snapshot()
	var sum node.Stats
	sum.Add(&snap)
	sum.Add(&snap)
	snapV, sumV := reflect.ValueOf(snap), reflect.ValueOf(sum)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if got, want := snapV.Field(i).Int(), v.Field(i).Int(); got != want {
			t.Errorf("Snapshot: %s = %d, want %d", name, got, want)
		}
		want := 2 * v.Field(i).Int()
		if name == "Node" {
			want = 0
		}
		if got := sumV.Field(i).Int(); got != want {
			t.Errorf("Add: %s = %d, want %d", name, got, want)
		}
	}
}
