package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"multiscalar/internal/core"
	"multiscalar/internal/obs"
	"multiscalar/internal/obs/span"
	"multiscalar/internal/sim"
)

// spanRec is one span of a traced run, whether the benchmark recorded it
// around a call into a layer or the program's own span layer did. Times are
// Unix nanoseconds; Trace, ID and Parent use the program's hex formats so
// the two kinds link into one tree.
type spanRec struct {
	Trace, ID, Parent, Name string
	Start, End              int64
	Attrs                   map[string]string
}

func (s spanRec) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// ids mints span and trace IDs for the benchmark's own spans. Each minter
// has its own two-hex-digit prefix, so minters never collide with each
// other, and the program's random IDs almost surely never do.
type ids struct {
	prefix string
	n      atomic.Uint64
}

func (g *ids) span() string  { return fmt.Sprintf("%s%014x", g.prefix, g.n.Add(1)) }
func (g *ids) trace() string { return fmt.Sprintf("%s%030x", g.prefix, g.n.Add(1)) }

// simCall is one sim.Run observed through grid.SetSimForTesting.
type simCall struct {
	part       *core.Partition
	cfg        sim.Config
	res        *sim.Result
	start, end int64
}

// simRecorder replaces the engine's sim function during a traced pass.
type simRecorder struct {
	mu    sync.Mutex
	calls []simCall
}

func (r *simRecorder) run(part *core.Partition, cfg sim.Config) (*sim.Result, error) {
	start := time.Now().UnixNano()
	res, err := sim.Run(part, cfg)
	end := time.Now().UnixNano()
	if err == nil {
		kept := *res // see tally.snapshot
		r.mu.Lock()
		r.calls = append(r.calls, simCall{part: part, cfg: cfg, res: &kept, start: start, end: end})
		r.mu.Unlock()
	}
	return res, err
}

func (r *simRecorder) snapshot() []simCall {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]simCall(nil), r.calls...)
}

// programSpans drains every trace the program's tracer retained.
func programSpans(t *span.Tracer) []spanRec {
	var out []spanRec
	for _, td := range t.Recorder().List(span.Filter{Limit: 1 << 30}) {
		for _, s := range td.Spans {
			out = append(out, spanRec{
				Trace: string(s.TraceID), ID: string(s.SpanID), Parent: string(s.Parent),
				Name: s.Name, Start: s.Start, End: s.Start + s.Duration, Attrs: s.Attrs,
			})
		}
	}
	return out
}

// clockSlack absorbs the difference between the wall-clock start and the
// monotonic duration the program's spans combine.
const clockSlack = int64(50 * time.Microsecond)

// attachSims adds one sim.run span per observed call, as the child of the
// grid.sim-exec span that ran it: the one enclosing the call that started
// last. grid starts that span on the calling goroutine immediately before
// the sim function, so with a bounded worker pool the match is unique. A
// call made under a context without a span has no such parent; its span
// becomes a root of its own and counts as orphaned. attachSims returns the
// spans, per call the index of its span, and the orphan count.
func attachSims(g *ids, spans []spanRec, calls []simCall) ([]spanRec, []int, int) {
	var execs []int
	for i, s := range spans {
		if s.Name == "grid.sim-exec" {
			execs = append(execs, i)
		}
	}
	idx := make([]int, len(calls))
	orphans := 0
	for c, call := range calls {
		best := -1
		for _, i := range execs {
			s := spans[i]
			if s.Start <= call.start+clockSlack && s.End+clockSlack >= call.end &&
				(best < 0 || s.Start > spans[best].Start) {
				best = i
			}
		}
		s := spanRec{
			ID: g.span(), Name: "sim.run", Start: call.start, End: call.end,
			Attrs: map[string]string{"pus": fmt.Sprint(call.cfg.NumPUs), "instrs": fmt.Sprint(call.res.Instrs)},
		}
		if best >= 0 {
			s.Trace, s.Parent = spans[best].Trace, spans[best].ID
		} else {
			s.Trace = g.trace()
			orphans++
		}
		idx[c] = len(spans)
		spans = append(spans, s)
	}
	return spans, idx, orphans
}

// tree indexes spans by ID for parent and child walks.
type tree struct {
	spans    []spanRec
	byID     map[string]int
	children map[string][]int
}

func newTree(spans []spanRec) *tree {
	t := &tree{spans: spans, byID: make(map[string]int, len(spans)), children: make(map[string][]int)}
	for i, s := range spans {
		t.byID[s.Trace+s.ID] = i
	}
	for i, s := range spans {
		if s.Parent != "" {
			t.children[s.Trace+s.Parent] = append(t.children[s.Trace+s.Parent], i)
		}
	}
	return t
}

func (t *tree) parent(i int) (int, bool) {
	s := t.spans[i]
	if s.Parent == "" {
		return 0, false
	}
	p, ok := t.byID[s.Trace+s.Parent]
	return p, ok
}

// ancestor returns the nearest enclosing span named name.
func (t *tree) ancestor(i int, name string) (int, bool) {
	for {
		p, ok := t.parent(i)
		if !ok {
			return 0, false
		}
		if t.spans[p].Name == name {
			return p, true
		}
		i = p
	}
}

// self is a span's duration minus the part of it its children cover.
func (t *tree) self(i int) int64 {
	s := t.spans[i]
	type iv struct{ a, b int64 }
	var kids []iv
	for _, c := range t.children[s.Trace+s.ID] {
		a, b := max(t.spans[c].Start, s.Start), min(t.spans[c].End, s.End)
		if b > a {
			kids = append(kids, iv{a, b})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].a < kids[j].a })
	covered, end := int64(0), s.Start
	for _, k := range kids {
		if k.a > end {
			end = k.a
		}
		if k.b > end {
			covered += k.b - end
			end = k.b
		}
	}
	return s.End - s.Start - covered
}

// layerOf maps a span name to the repository layer doing the work. Spans
// that only wait for a worker slot or another caller's computation belong
// to no layer: their time is reported as grid.wait_ms_p50 instead.
func layerOf(name string) string {
	switch {
	case name == "grid.queue-wait" || name == "grid.singleflight-wait":
		return "wait"
	case name == "grid.partition":
		return "core"
	case name == "sim.run":
		return "sim"
	case name == "http.client":
		return "http"
	}
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfByLayer sums self time in milliseconds per layer.
func (t *tree) selfByLayer() map[string]float64 {
	out := make(map[string]float64)
	for i, s := range t.spans {
		out[layerOf(s.Name)] += float64(t.self(i)) / 1e6
	}
	return out
}

// writeChrome writes spans as Chrome trace events, packing them into lanes
// where every span nests inside the span below it.
func writeChrome(path string, spans []spanRec) error {
	if len(spans) == 0 {
		return nil
	}
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := spans[order[a]], spans[order[b]]
		if sa.Start != sb.Start {
			return sa.Start < sb.Start
		}
		return sa.End > sb.End
	})
	t0 := spans[order[0]].Start
	var lanes [][]int64 // per lane, the end times of its open spans
	events := make([]obs.ChromeEvent, 0, len(spans))
	for _, i := range order {
		s := spans[i]
		lane := -1
		for l := range lanes {
			for n := len(lanes[l]); n > 0 && lanes[l][n-1] <= s.Start; n = len(lanes[l]) {
				lanes[l] = lanes[l][:n-1]
			}
			if n := len(lanes[l]); n == 0 || lanes[l][n-1] >= s.End {
				lane = l
				break
			}
		}
		if lane < 0 {
			lane = len(lanes)
			lanes = append(lanes, nil)
		}
		lanes[lane] = append(lanes[lane], s.End)
		args := map[string]any{"layer": layerOf(s.Name), "trace": s.Trace}
		for k, v := range s.Attrs {
			args[k] = v
		}
		events = append(events, obs.ChromeEvent{
			Name: s.Name, Ph: "X", Ts: (s.Start - t0) / 1000, Dur: max(1, (s.End-s.Start)/1000),
			Pid: 1, Tid: lane, Args: args,
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := obs.WriteChromeEvents(w, events); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
