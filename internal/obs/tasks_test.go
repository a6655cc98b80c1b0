package obs

import (
	"reflect"
	"testing"
)

// TestTaskSpans covers the shapes the simulator's stream takes (payloads on
// the lifetime edges, a mispredict after its task's retire, restarts before
// it) and those of a truncated or reordered one: a retire with no assign,
// tasks still open at the end, retire order differing from assign order.
func TestTaskSpans(t *testing.T) {
	events := []Event{
		{Kind: EvTaskAssign, Cycle: 0, PU: 0, Seq: 0, Task: 3, Arg: 7},
		{Kind: EvTaskStart, Cycle: 2, PU: 0, Seq: 0, Task: 3},
		{Kind: EvTaskAssign, Cycle: 1, PU: 1, Seq: 1, Task: 4, Arg: 9},
		{Kind: EvSquash, Cycle: 5, PU: 1, Seq: 1, Task: 4},
		{Kind: EvRestart, Cycle: 6, PU: 1, Seq: 1, Task: 4},
		{Kind: EvTaskComplete, Cycle: 9, PU: 1, Seq: 1, Task: 4, Arg: 3},
		{Kind: EvTaskRetire, Cycle: 11, PU: 1, Seq: 1, Task: 4, Arg: 20},
		{Kind: EvTaskComplete, Cycle: 8, PU: 0, Seq: 0, Task: 3, Arg: 1},
		{Kind: EvTaskRetire, Cycle: 12, PU: 0, Seq: 0, Task: 3, Arg: 17},
		{Kind: EvMispredict, Cycle: 8, PU: 0, Seq: 0, Task: 3},
		{Kind: EvTaskRetire, Cycle: 30, PU: 1, Seq: 5, Task: 2, Arg: 4},
		{Kind: EvTaskAssign, Cycle: 40, PU: 0, Seq: 7, Task: 1},
		{Kind: EvTaskAssign, Cycle: 35, PU: 1, Seq: 6, Task: 1},
		{Kind: EvTaskStart, Cycle: 36, PU: 1, Seq: 6, Task: 1},
		{Kind: EvTaskStart, Cycle: 50, PU: 1, Seq: 9, Task: 1}, // never assigned
	}
	want := []TaskSpan{
		{Seq: 1, Task: 4, PU: 1, Assign: 1, Complete: 9, Retire: 11, Instrs: 20,
			InterTaskWait: 3, Exit: 9, Restarts: 1, Retired: true},
		{Seq: 0, Task: 3, PU: 0, Assign: 0, Start: 2, Complete: 8, Retire: 12, Instrs: 17,
			InterTaskWait: 1, Exit: 7, Mispredicted: true, Retired: true},
		{Seq: 5, Task: 2, PU: 1, Assign: 30, Start: 30, Complete: 30, Retire: 30, Instrs: 4, Retired: true},
		{Seq: 6, Task: 1, PU: 1, Assign: 35, Start: 36},
		{Seq: 7, Task: 1, PU: 0, Assign: 40},
	}
	if got := TaskSpans(events); !reflect.DeepEqual(got, want) {
		t.Errorf("TaskSpans:\ngot  %+v\nwant %+v", got, want)
	}
	if got := TaskSpans(nil); len(got) != 0 {
		t.Errorf("TaskSpans(nil) = %+v, want none", got)
	}
}

// TestRecordSimMetrics checks the catalog against a hand-built stream: only
// retired tasks count, forward leads are measured from their task's
// completion, and releases are not forward leads.
func TestRecordSimMetrics(t *testing.T) {
	events := []Event{
		{Kind: EvTaskAssign, Cycle: 0, Seq: 0},
		{Kind: EvSquash, Cycle: 3, Seq: 0},
		{Kind: EvRestart, Cycle: 4, Seq: 0},
		{Kind: EvRegForward, Cycle: 6, Seq: 0, Arg: 5},
		{Kind: EvRegRelease, Cycle: 10, Seq: 0, Arg: 6},
		{Kind: EvTaskComplete, Cycle: 10, Seq: 0, Arg: 12},
		{Kind: EvTaskRetire, Cycle: 12, Seq: 0, Arg: 30},
		{Kind: EvTaskAssign, Cycle: 1, Seq: 1},
		{Kind: EvRegForward, Cycle: 2, Seq: 1, Arg: 5}, // task never retires
	}
	r := NewRegistry()
	RecordSimMetrics(r, events)
	got := make(map[string]MetricSnapshot)
	for _, m := range r.Snapshot().Metrics {
		got[m.Name] = m
	}
	if len(got) != 6 {
		t.Errorf("%d metrics registered, want the 6 sim_* ones", len(got))
	}
	for _, c := range []struct {
		name       string
		value, sum int64
	}{
		{"sim_tasks_total", 1, 0},
		{"sim_squashes_total", 1, 0},
		{"sim_task_instrs", 1, 30},
		{"sim_inter_task_wait_cycles", 1, 12},
		{"sim_forward_lead_cycles", 1, 4},
		{"sim_restart_depth", 1, 1},
	} {
		m := got[c.name]
		n := m.Count
		if m.Value != nil {
			n = *m.Value
		}
		if n != c.value || m.Sum != c.sum {
			t.Errorf("%s: count/value %d sum %d, want %d and %d", c.name, n, m.Sum, c.value, c.sum)
		}
	}
}
