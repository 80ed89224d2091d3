package live

import (
	"reflect"
	"testing"

	"lrcdsm/internal/core"
)

// TestAddStatsAccumulatesEveryCounter checks the cluster total a run
// reports: every counter of Stats.Total is the sum of that counter over
// PerNode, and Total carries no node identity. The sum is
// node.Stats.Add, a walk over the struct, so a counter added to
// node.Stats reaches the total (and dsmd -json) without another list.
func TestAddStatsAccumulatesEveryCounter(t *testing.T) {
	_, st := runApp(t, "tsp", core.LH, 2, nil)
	if len(st.PerNode) != 2 {
		t.Fatalf("PerNode has %d entries, want 2", len(st.PerNode))
	}
	if st.Total.Node != -1 {
		t.Errorf("Total.Node = %d, want -1", st.Total.Node)
	}
	tv := reflect.ValueOf(st.Total)
	for i := 0; i < tv.NumField(); i++ {
		if tv.Field(i).Kind() != reflect.Int64 {
			continue
		}
		var sum int64
		for _, s := range st.PerNode {
			sum += reflect.ValueOf(s).Field(i).Int()
		}
		if got := tv.Field(i).Int(); got != sum {
			t.Errorf("Total.%s = %d, want the per-node sum %d", tv.Type().Field(i).Name, got, sum)
		}
	}
	if st.Total.MsgsSent == 0 || st.Total.LockAcquires == 0 {
		t.Errorf("tsp run moved no messages or locks: %+v", st.Total)
	}
}
