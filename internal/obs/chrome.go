package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// ChromeEvent is one entry of the Chrome trace-event format (the JSON
// "traceEvents" array), which ui.perfetto.dev and chrome://tracing both
// ingest. Timestamps are in microseconds; the cycle exporter below maps one
// simulated cycle to one microsecond so cycle numbers read directly off the
// ruler, and the span exporter (internal/obs/span) reuses the type for real
// wall-clock microseconds.
type ChromeEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	Ts    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeEvents wraps an already-built event list in the trace-event
// envelope. It is the low-level half of WriteChromeTrace, shared with the
// distributed-span exporter.
func WriteChromeEvents(w io.Writer, events []ChromeEvent) error {
	return json.NewEncoder(w).Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ns"})
}

// WriteChromeTrace exports an event stream as Chrome trace-event JSON: one
// thread ("track") per PU, one complete ("X") slice per dynamic task
// spanning assign→retire, and instant events for squashes, restarts, ARB
// overflows, mispredictions, sync waits, and register ring traffic. Open the
// output in ui.perfetto.dev. The stream need not be cycle-sorted; slices come
// first, in TaskSpans order, then instants in emission order.
func WriteChromeTrace(w io.Writer, events []Event, numPUs int) error {
	if numPUs <= 0 {
		return fmt.Errorf("obs: WriteChromeTrace wants a positive PU count, got %d", numPUs)
	}
	out := make([]ChromeEvent, 0, len(events)+2*numPUs+1)
	out = append(out, ChromeEvent{
		Name: "process_name", Ph: "M", Pid: 0, Tid: 0,
		Args: map[string]any{"name": "multiscalar"},
	})
	for pu := 0; pu < numPUs; pu++ {
		out = append(out,
			ChromeEvent{
				Name: "thread_name", Ph: "M", Pid: 0, Tid: pu,
				Args: map[string]any{"name": fmt.Sprintf("PU %d", pu)},
			},
			ChromeEvent{
				Name: "thread_sort_index", Ph: "M", Pid: 0, Tid: pu,
				Args: map[string]any{"sort_index": pu},
			})
	}

	for _, sp := range TaskSpans(events) {
		if !sp.Retired {
			// The stream ended mid-flight: close the slice at its last known
			// edge so the trace remains self-consistent.
			dur := max(sp.Start, sp.Complete) - sp.Assign
			out = append(out, ChromeEvent{
				Name: fmt.Sprintf("task %d (open)", sp.Task),
				Ph:   "X", Ts: sp.Assign, Dur: max(dur, 1), Pid: 0, Tid: sp.PU,
			})
			continue
		}
		out = append(out, ChromeEvent{
			Name: fmt.Sprintf("task %d", sp.Task),
			Ph:   "X", Ts: sp.Assign, Dur: max(sp.Retire-sp.Assign, 1), Pid: 0, Tid: sp.PU,
			Args: map[string]any{
				"seq":      sp.Seq,
				"instrs":   sp.Instrs,
				"start":    sp.Start,
				"complete": sp.Complete,
				"retire":   sp.Retire,
			},
		})
	}
	for _, e := range events {
		switch e.Kind {
		case EvSquash, EvRestart, EvARBOverflow, EvMispredict, EvSyncWait,
			EvRegForward, EvRegRelease:
			out = append(out, ChromeEvent{
				Name: e.Kind.String(),
				Ph:   "i", Ts: e.Cycle, Pid: 0, Tid: e.PU, Scope: "t",
				Args: map[string]any{"seq": e.Seq, "task": e.Task, "arg": e.Arg},
			})
		}
	}
	return WriteChromeEvents(w, out)
}
