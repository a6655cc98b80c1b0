package sim

import (
	"fmt"
	"strings"

	"multiscalar/internal/core"
	"multiscalar/internal/ir"
	"multiscalar/internal/obs"
)

// Timeline is the per-run task record sequence, in retire order.
type Timeline []obs.TaskSpan

// TimelineOf rebuilds the timeline of a run from the events RunObserved
// emitted. Instances the stream ended before retiring are left out.
func TimelineOf(events []obs.Event) Timeline {
	spans := obs.TaskSpans(events)
	n := 0
	for n < len(spans) && spans[n].Retired { // retired spans come first
		n++
	}
	return spans[:n]
}

// encodeExit packs an exit target into an event Arg: the kind in the low
// byte, the block (TargetBlock) or callee (TargetCall) above it. It encodes
// the target itself, not its index, since an exit need not be a listed
// target.
func encodeExit(t core.Target) int64 {
	var id int64
	switch t.Kind {
	case core.TargetBlock:
		id = int64(t.Blk)
	case core.TargetCall:
		id = int64(t.Fn)
	}
	return id<<8 | int64(t.Kind)
}

// decodeExit inverts encodeExit.
func decodeExit(arg int64) core.Target {
	t := core.Target{Kind: core.TargetKind(arg & 0xff)}
	switch t.Kind {
	case core.TargetBlock:
		t.Blk = ir.BlockID(arg >> 8)
	case core.TargetCall:
		t.Fn = ir.FnID(arg >> 8)
	}
	return t
}

// FormatTimeline renders up to max records as a text Gantt chart: one row
// per task, columns assign/start/complete/retire, plus a proportional bar.
// Pass max <= 0 for all records.
func FormatTimeline(tl Timeline, max int) string {
	if len(tl) == 0 {
		return "(empty timeline)\n"
	}
	if max <= 0 || max > len(tl) {
		max = len(tl)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%4s %5s %3s %8s %8s %8s %8s %6s %5s %s\n",
		"seq", "task", "pu", "assign", "start", "complete", "retire", "instrs", "exit", "activity")
	end := tl[max-1].Retire
	begin := tl[0].Assign
	span := end - begin
	if span <= 0 {
		span = 1
	}
	const width = 40
	for _, rec := range tl[:max] {
		bar := make([]byte, width)
		for i := range bar {
			bar[i] = ' '
		}
		mark := func(from, to int64, ch byte) {
			lo := int((from - begin) * width / span)
			hi := int((to - begin) * width / span)
			for i := lo; i <= hi && i < width; i++ {
				if i >= 0 {
					bar[i] = ch
				}
			}
		}
		mark(rec.Assign, rec.Start, '.')
		mark(rec.Start, rec.Complete, '#')
		mark(rec.Complete, rec.Retire, '-')
		flag := ""
		if rec.Mispredicted {
			flag = "!"
		}
		fmt.Fprintf(&sb, "%4d %4d%s %3d %8d %8d %8d %8d %6d %5s |%s|\n",
			rec.Seq, rec.Task, flag, rec.PU, rec.Assign, rec.Start, rec.Complete,
			rec.Retire, rec.Instrs, decodeExit(rec.Exit), string(bar))
	}
	return sb.String()
}

// Utilization computes the fraction of PU-cycles spent holding live tasks
// (start to retire) over the recorded span — a coarse occupancy figure. The
// span runs from the first assignment to the last retire, so a timeline that
// begins late in a run (or a truncated slice of one) is measured against its
// own extent, not against cycle 0.
func (tl Timeline) Utilization(numPUs int) float64 {
	if len(tl) == 0 {
		return 0
	}
	var busy, total int64
	end := tl[len(tl)-1].Retire
	for _, rec := range tl {
		busy += rec.Retire - rec.Start
	}
	total = (end - tl[0].Assign) * int64(numPUs)
	if total <= 0 {
		return 0
	}
	u := float64(busy) / float64(total)
	if u > 1 {
		u = 1
	}
	return u
}
