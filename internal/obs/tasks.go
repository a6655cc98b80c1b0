package obs

import "sort"

// TaskSpan is one dynamic task instance rebuilt from its lifetime events.
// It is the single place the event stream is folded back into per-task
// records: the Chrome exporter, the simulator's metrics catalog and its text
// timeline all read these.
type TaskSpan struct {
	Seq, Task, PU int

	Assign, Start, Complete, Retire int64

	Instrs        int64 // EvTaskRetire Arg
	InterTaskWait int64 // EvTaskComplete Arg
	Exit          int64 // EvTaskAssign Arg (the producer's exit-target encoding)
	Restarts      int   // EvRestart events of this instance
	// Mispredicted marks that this instance's successor was mispredicted
	// (an EvMispredict named it).
	Mispredicted bool
	// Retired is false for an instance the stream ended before retiring.
	Retired bool
}

// TaskSpans folds an event stream into per-task spans: retired instances
// first, in retire order, then instances still open when the stream ended,
// in assign order. The stream need not be cycle-sorted. Events of a sequence
// number never assigned are dropped, except a retire, which yields a
// zero-length span at the retire cycle so a truncated stream loses no task.
func TaskSpans(events []Event) []TaskSpan {
	var spans []TaskSpan
	var retired []int       // span indices in retire order
	at := make(map[int]int) // Seq -> index of its latest span
	for _, e := range events {
		if e.Kind == EvTaskAssign {
			at[e.Seq] = len(spans)
			spans = append(spans, TaskSpan{Seq: e.Seq, Task: e.Task, PU: e.PU, Assign: e.Cycle, Exit: e.Arg})
			continue
		}
		i, ok := at[e.Seq]
		if !ok && e.Kind == EvTaskRetire {
			i, ok = len(spans), true
			at[e.Seq] = i
			spans = append(spans, TaskSpan{Seq: e.Seq, Task: e.Task, PU: e.PU,
				Assign: e.Cycle, Start: e.Cycle, Complete: e.Cycle})
		}
		if !ok {
			continue
		}
		sp := &spans[i]
		switch e.Kind {
		case EvTaskStart:
			sp.Start = e.Cycle
		case EvTaskComplete:
			sp.Complete, sp.InterTaskWait = e.Cycle, e.Arg
		case EvTaskRetire:
			sp.Retire, sp.Instrs, sp.Retired = e.Cycle, e.Arg, true
			retired = append(retired, i)
		case EvRestart:
			sp.Restarts++
		case EvMispredict:
			sp.Mispredicted = true
		}
	}
	out := make([]TaskSpan, 0, len(spans))
	for _, i := range retired {
		out = append(out, spans[i])
	}
	n := len(out)
	for _, sp := range spans {
		if !sp.Retired {
			out = append(out, sp)
		}
	}
	open := out[n:]
	sort.SliceStable(open, func(i, j int) bool { return open[i].Assign < open[j].Assign })
	return out
}

// RecordSimMetrics adds the simulator's cycle-accounting catalog, computed
// from a run's event stream, to r. Units are cycles unless stated; the
// catalog is documented in DESIGN.md §9. Only retired instances count, and
// recording two runs into one registry sums them.
func RecordSimMetrics(r *Registry, events []Event) {
	tasks := r.Counter("sim_tasks_total", "tasks",
		"dynamic task instances retired")
	squashes := r.Counter("sim_squashes_total", "squashes",
		"memory dependence squash/restart pairs")
	taskInstrs := r.Histogram("sim_task_instrs", "instrs",
		"dynamic instructions per task instance (Table 1 '#dyn inst')",
		ExpBuckets(1, 2, 16))
	interWait := r.Histogram("sim_inter_task_wait_cycles", "cycles",
		"per-task cycles stalled on values forwarded from earlier tasks",
		ExpBuckets(1, 2, 20))
	forwardLead := r.Histogram("sim_forward_lead_cycles", "cycles",
		"task completion minus register forward/release send time (ring "+
			"backpressure can push a send past completion, giving negatives)",
		ExpBuckets(1, 2, 16))
	restartDep := r.Histogram("sim_restart_depth", "restarts",
		"memory dependence restarts per task instance",
		LinearBuckets(0, 1, 9))

	spans := TaskSpans(events)
	complete := make(map[int]int64, len(spans))
	for _, sp := range spans {
		if !sp.Retired {
			continue
		}
		tasks.Inc()
		taskInstrs.Observe(sp.Instrs)
		interWait.Observe(sp.InterTaskWait)
		restartDep.Observe(int64(sp.Restarts))
		complete[sp.Seq] = sp.Complete
	}
	for _, e := range events {
		switch e.Kind {
		case EvSquash:
			squashes.Inc()
		case EvRegForward:
			if c, ok := complete[e.Seq]; ok {
				forwardLead.Observe(c - e.Cycle)
			}
		}
	}
}
