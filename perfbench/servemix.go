package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"multiscalar/internal/core"
	"multiscalar/internal/grid"
	"multiscalar/internal/ir"
	"multiscalar/internal/jobs"
	"multiscalar/internal/obs/span"
	"multiscalar/internal/serve"
	"multiscalar/internal/sim"
	"multiscalar/internal/workloads"
)

// The serve-mix stream: a closed loop of mixClients clients, each issuing
// its own ops one after another. Each client owns mixFresh fresh Figure 5
// points, half run cold through POST /v1/simulate and half as async jobs,
// and follows every fresh op with mixRepeats warm /v1/simulate repeats of
// points it has already completed: the first repeats the point just done,
// the others are drawn from all of its fresh points so far.
const (
	mixClients = 2
	mixFresh   = 100
	mixRepeats = 5
	mixStreams = 4 // the fewest streams an untraced run makes
)

type opKind int

const (
	opCold opKind = iota
	opWarm
	opJob
)

var opNames = [...]string{"cold", "warm", "job"}

// point is one Figure 5 machine point: a workload under one of the four
// selection variants on 4 or 8 in-order or out-of-order PUs.
type point struct {
	workload string
	variant  int // 0 bb, 1 cf, 2 dd, 3 dd + task size
	pus      int
	inOrder  bool
}

func (p point) request() serve.SimulateRequest {
	return serve.SimulateRequest{
		Workload: p.workload,
		Select:   serve.SelectOptions{Heuristic: [...]string{"bb", "cf", "dd", "dd"}[p.variant], TaskSize: p.variant == 3},
		Machine:  serve.MachineConfig{PUs: p.pus, InOrder: p.inOrder},
	}
}

// job is the grid job serve resolves the request to.
func (p point) job() grid.Job {
	h := [...]core.Heuristic{core.BasicBlock, core.ControlFlow, core.DataDependence, core.DataDependence}[p.variant]
	cfg := sim.DefaultConfig(p.pus)
	cfg.InOrder = p.inOrder
	return grid.Job{Workload: p.workload, Select: core.Options{Heuristic: h, TaskSize: p.variant == 3}, Config: cfg}
}

type op struct {
	kind opKind
	pt   int // index into mix.points
}

// mix is one seeded request stream.
type mix struct {
	points  []point
	clients [mixClients][]op
}

// fig5Points is the 288 Figure 5 points, workload by workload.
func fig5Points() []point {
	var all []point
	for _, w := range workloads.Names() {
		for _, pus := range []int{4, 8} {
			for _, inOrder := range []bool{false, true} {
				for v := 0; v < 4; v++ {
					all = append(all, point{w, v, pus, inOrder})
				}
			}
		}
	}
	return all
}

// newMix draws the n-th stream of a run on seed. Each stream of an
// untraced run draws its own points, so a run's cold and job latencies
// pool four or more draws instead of repeating one.
func newMix(seed int64, n int) mix {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5e7e+uint64(n)))
	names := workloads.Names()
	all := fig5Points()
	per := make([][]point, len(names)) // each workload's points, in seeded order
	for i := range names {
		per[i] = all[i*len(all)/len(names) : (i+1)*len(all)/len(names)]
		rng.Shuffle(len(per[i]), func(a, b int) { per[i][a], per[i][b] = per[i][b], per[i][a] })
	}
	// The cold and the job points are each drawn stratified by workload:
	// every workload gives the same number, and the seed picks which give
	// one more. Simulation cost differs several-fold between workloads, so
	// an unstratified draw would make the latencies measure the draw.
	perKind := mixClients * mixFresh / 2
	var drawn [2][]point
	next := make([]int, len(names))
	for k := range drawn {
		count := make([]int, len(names))
		for i := range count {
			count[i] = perKind / len(names)
		}
		for _, i := range rng.Perm(len(names))[:perKind%len(names)] {
			count[i]++
		}
		for i := range names {
			drawn[k] = append(drawn[k], per[i][next[i]:next[i]+count[i]]...)
			next[i] += count[i]
		}
		rng.Shuffle(len(drawn[k]), func(a, b int) { drawn[k][a], drawn[k][b] = drawn[k][b], drawn[k][a] })
	}
	// Deal each kind's points alternately to the clients; a client runs its
	// fresh ops in seeded order.
	var m mix
	for c := range m.clients {
		var fresh []op
		for k, kind := range []opKind{opCold, opJob} {
			for j := c; j < len(drawn[k]); j += mixClients {
				m.points = append(m.points, drawn[k][j])
				fresh = append(fresh, op{kind, len(m.points) - 1})
			}
		}
		rng.Shuffle(len(fresh), func(a, b int) { fresh[a], fresh[b] = fresh[b], fresh[a] })
		for k, f := range fresh {
			m.clients[c] = append(m.clients[c], f, op{opWarm, f.pt})
			for r := 1; r < mixRepeats; r++ {
				m.clients[c] = append(m.clients[c], op{opWarm, fresh[rng.IntN(k+1)].pt})
			}
		}
	}
	return m
}

// reply is the outcome of one op.
type reply struct {
	op       op
	body     []byte // simulate response, or the job's result event data
	lat      time.Duration
	requests int // HTTP requests the op made
	jobID    string
	resumes  int // times the job's event stream had to be resumed
	err      error
	// Traced runs only: the client spans, and a job's queue and exec time
	// read from its record.
	spans           []spanRec
	queueMS, execMS float64
}

// instance is one freshly set-up service: an engine with a disk-cache tier,
// a job manager with a journal, and the server behind an httptest listener.
type instance struct {
	dir    string
	tally  *tally
	eng    *grid.Engine
	mgr    *jobs.Manager
	stop   context.CancelFunc
	hs     *httptest.Server
	tracer *span.Tracer
	server *handlerRecorder
	h      detachable
}

func newInstance(ctx context.Context, e *env, traced bool) (*instance, error) {
	dir, err := os.MkdirTemp(e.work, "serve-mix-")
	if err != nil {
		return nil, err
	}
	in := &instance{dir: dir}
	in.tally = newTally(grid.NewDiskCache(filepath.Join(dir, "cache")))
	in.eng = grid.New(grid.Options{Workers: e.nproc, Cache: in.tally})
	if traced {
		in.tracer = span.New(span.Options{Process: "perfbench", Ring: 1 << 14, MaxActive: 1 << 12})
		in.server = &handlerRecorder{ids: ids{prefix: "bf"}}
	}
	in.mgr, err = jobs.NewManager(jobs.Options{
		Runners:   2,
		Dir:       filepath.Join(dir, "jobs"),
		Executors: serve.Executors(in.eng, time.Second),
		Cost:      serve.JobCost,
		Tracer:    in.tracer,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	mctx, stop := context.WithCancel(ctx)
	in.stop = stop
	in.mgr.Start(mctx)
	var h http.Handler = serve.New(serve.Config{Engine: in.eng, Jobs: in.mgr, Tracer: in.tracer}).Handler()
	if traced {
		h = in.server.wrap(h)
	}
	in.h.attach(h)
	in.hs = httptest.NewServer(&in.h)
	resp, err := in.hs.Client().Get(in.hs.URL + "/healthz")
	if err != nil {
		in.close()
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		in.close()
		return nil, fmt.Errorf("healthz: %s", resp.Status)
	}
	return in, nil
}

func (in *instance) close() {
	in.hs.Close()
	in.h.detach()
	in.mgr.Close()
	in.stop()
	os.RemoveAll(in.dir)
}

// handlerRecorder wraps serve.Server.Handler() and records one server-side
// span per request, linked under the client's span and, through the
// X-Ms-Trace header, above the program's own serve.request span.
type handlerRecorder struct {
	ids   ids
	mu    sync.Mutex
	spans []spanRec
}

type countingWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *countingWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (h *handlerRecorder) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := span.ParseHeader(r.Header.Get(span.Header))
		s := spanRec{
			Trace: string(parent.TraceID), ID: h.ids.span(), Parent: string(parent.SpanID),
			Name: "serve.handler", Attrs: map[string]string{"op": r.Header.Get("X-Bench-Op"), "path": r.URL.Path},
		}
		if parent.Valid() {
			r.Header.Set(span.Header, string(parent.TraceID)+"-"+s.ID)
		}
		cw := &countingWriter{ResponseWriter: w}
		s.Start = time.Now().UnixNano()
		next.ServeHTTP(cw, r)
		s.End = time.Now().UnixNano()
		s.Attrs["status"] = fmt.Sprint(cw.status)
		s.Attrs["bytes"] = fmt.Sprint(cw.bytes)
		h.mu.Lock()
		h.spans = append(h.spans, s)
		h.mu.Unlock()
	})
}

// client issues one client's ops in order, each after the previous one
// completed.
type client struct {
	url    string
	hc     *http.Client
	m      *mix
	traced bool
	ids    *ids
}

func (c *client) post(ctx context.Context, r *reply, opName, path string, body any, want int) (*http.Response, error) {
	blob, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url+path, bytes.NewReader(blob))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(r, opName, req, want)
}

// do sends one request, recording an http.client span when traced. The
// caller owns the response body.
func (c *client) do(r *reply, opName string, req *http.Request, want int) (*http.Response, error) {
	req.Header.Set("X-Bench-Op", opName)
	var s spanRec
	if c.traced {
		s = spanRec{Trace: c.ids.trace(), ID: c.ids.span(), Name: "http.client",
			Attrs: map[string]string{"op": opName, "path": req.URL.Path}}
		req.Header.Set(span.Header, s.Trace+"-"+s.ID)
		s.Start = time.Now().UnixNano()
	}
	r.requests++
	resp, err := c.hc.Do(req)
	if c.traced {
		// The span ends when the caller has read the body; see finish.
		r.spans = append(r.spans, s)
	}
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, bytes.TrimSpace(b))
	}
	return resp, nil
}

// finish closes the client span of the op's latest request.
func (c *client) finish(r *reply) {
	if c.traced && len(r.spans) > 0 {
		r.spans[len(r.spans)-1].End = time.Now().UnixNano()
	}
}

func (c *client) run(ctx context.Context, o op) reply {
	r := reply{op: o}
	t0 := time.Now()
	req := c.m.points[o.pt].request()
	switch o.kind {
	case opCold, opWarm:
		resp, err := c.post(ctx, &r, opNames[o.kind], "/v1/simulate", req, http.StatusOK)
		if err != nil {
			r.err = err
			c.finish(&r)
			break
		}
		r.body, r.err = io.ReadAll(resp.Body)
		resp.Body.Close()
		c.finish(&r)
	case opJob:
		r.body, r.err = c.job(ctx, &r, req)
	}
	r.lat = time.Since(t0)
	if c.traced && o.kind == opJob && r.err == nil {
		r.queueMS, r.execMS, r.err = c.jobTimes(ctx, &r)
	}
	return r
}

// job submits req as an async simulate job and follows its event stream to
// the terminal event, returning the result event's data.
func (c *client) job(ctx context.Context, r *reply, req serve.SimulateRequest) ([]byte, error) {
	raw, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := c.post(ctx, r, "submit", "/v1/jobs", serve.JobSubmitRequest{Kind: "simulate", Request: raw}, http.StatusAccepted)
	if err != nil {
		c.finish(r)
		return nil, err
	}
	var st serve.JobStatusResponse
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	c.finish(r)
	if err != nil {
		return nil, fmt.Errorf("decode job status: %w", err)
	}
	r.jobID = st.ID
	var after string
	for {
		data, last, err := c.events(ctx, r, after)
		if err != nil || data != nil {
			return data, err
		}
		// The stream closed before the terminal event. The contract says a
		// client resumes from its last event id, as an EventSource does
		// after its reconnection delay; the resume is counted, since a
		// closing stream of a finished job should carry its terminal event.
		if r.resumes++; r.resumes > maxResumes {
			return nil, fmt.Errorf("job %s: event stream ended %d times without a terminal event", st.ID, r.resumes)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(resumeDelay << (r.resumes - 1)):
		}
		after = last
	}
}

// A client resumes one job's event stream at most maxResumes times, waiting
// resumeDelay before the first resume and twice as long before each next.
const (
	maxResumes  = 6
	resumeDelay = 5 * time.Millisecond
)

// events reads the job's event stream once, from after the event id after.
// It returns the result event's data, or nil with the last event id seen
// when the stream ended without a terminal event.
func (c *client) events(ctx context.Context, r *reply, after string) (data []byte, last string, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url+"/v1/jobs/"+r.jobID+"/events", nil)
	if err != nil {
		return nil, "", err
	}
	if after != "" {
		req.Header.Set("Last-Event-ID", after)
	}
	resp, err := c.do(r, "events", req, http.StatusOK)
	if err != nil {
		c.finish(r)
		return nil, "", err
	}
	defer func() {
		resp.Body.Close()
		c.finish(r)
	}()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	last, event := after, ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			last = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "result":
			return []byte(strings.TrimPrefix(line, "data: ")), last, nil
		case strings.HasPrefix(line, "data: ") && event == "error":
			return nil, last, fmt.Errorf("job %s failed: %s", r.jobID, strings.TrimPrefix(line, "data: "))
		}
	}
	return nil, last, sc.Err()
}

// jobTimes reads a finished job's record for its queue and execution time.
func (c *client) jobTimes(ctx context.Context, r *reply) (queueMS, execMS float64, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url+"/v1/jobs/"+r.jobID, nil)
	if err != nil {
		return 0, 0, err
	}
	resp, err := c.do(r, "status", req, http.StatusOK)
	if err != nil {
		c.finish(r)
		return 0, 0, err
	}
	var st serve.JobStatusResponse
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	c.finish(r)
	if err != nil {
		return 0, 0, err
	}
	created, err1 := time.Parse(time.RFC3339Nano, st.Created)
	started, err2 := time.Parse(time.RFC3339Nano, st.Started)
	finished, err3 := time.Parse(time.RFC3339Nano, st.Finished)
	if err := errors.Join(err1, err2, err3); err != nil {
		return 0, 0, fmt.Errorf("job %s timestamps: %w", r.jobID, err)
	}
	return ms(started.Sub(created)), ms(finished.Sub(started)), nil
}

// stream is one measured pass of the request stream on a fresh instance.
type stream struct {
	m       *mix
	replies []reply
	p       passOut
	stored  []stored
	stats   grid.Stats
	journal int64
	// Traced streams only.
	tr      *tracedPass
	handler []spanRec
}

func runStream(ctx context.Context, e *env, m *mix, in *instance) stream {
	traced := in.tracer != nil
	var rec *simRecorder
	if traced {
		rec = &simRecorder{}
		defer grid.SetSimForTesting(rec.run)()
	}
	g := &ids{prefix: "be"}
	st := stream{m: m}
	per := make([][]reply, mixClients)
	st.p.use, _ = measure(func() error {
		var wg sync.WaitGroup
		for i := range per {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c := &client{url: in.hs.URL, hc: in.hs.Client(), m: m, traced: traced, ids: g}
				for _, o := range m.clients[i] {
					per[i] = append(per[i], c.run(ctx, o))
				}
			}(i)
		}
		wg.Wait()
		return nil
	})
	for _, rs := range per {
		st.replies = append(st.replies, rs...)
	}
	st.stored = in.tally.snapshot()
	st.stats = in.eng.Stats()
	st.p.sims = int(st.stats.Sims)
	st.p.instrs, st.p.cycles = totals(st.stored)
	for _, r := range st.replies {
		st.p.ops += r.requests
		lat := ms(r.lat)
		switch r.op.kind {
		case opCold:
			st.p.cold = append(st.p.cold, lat)
		case opWarm:
			st.p.warm = append(st.p.warm, lat)
		case opJob:
			st.p.job = append(st.p.job, lat)
		}
	}
	if fi, err := os.Stat(filepath.Join(in.dir, "jobs", "journal.jsonl")); err == nil {
		st.journal = fi.Size()
	}
	if traced {
		spans := programSpans(in.tracer)
		in.server.mu.Lock()
		st.handler = append([]spanRec(nil), in.server.spans...)
		in.server.mu.Unlock()
		spans = append(spans, st.handler...)
		for _, r := range st.replies {
			spans = append(spans, r.spans...)
		}
		calls := rec.snapshot()
		spans, idx, orphans := attachSims(g, spans, calls)
		st.tr = &tracedPass{spans: spans, sims: calls, simSpan: idx, orphans: orphans, stats: st.stats, tally: in.tally}
	}
	return st
}

// mixRef holds the expected /v1/simulate body of every point of a run's
// streams, computed by calling core.Select and sim.Run directly.
type mixRef struct {
	body map[point][]byte
}

func mixReference(e *env, mixes []*mix) (*mixRef, error) {
	type pk struct {
		workload string
		variant  int
	}
	parts := make(map[pk]*core.Partition)
	var need []pk
	var points []point
	seen := make(map[point]bool)
	for _, m := range mixes {
		for _, p := range m.points {
			if !seen[p] {
				seen[p] = true
				points = append(points, p)
			}
			k := pk{p.workload, p.variant}
			if _, ok := parts[k]; !ok {
				parts[k] = nil
				need = append(need, k)
			}
		}
	}
	built := make([]*core.Partition, len(need))
	err := parallel(e.nproc, len(need), func(i int) error {
		w, err := workloads.ByName(need[i].workload)
		if err != nil {
			return err
		}
		built[i], err = core.Select(w.Build(), point{variant: need[i].variant}.job().Select)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("serve-mix reference: %w", err)
	}
	for i, k := range need {
		parts[k] = built[i]
	}
	bodies := make([][]byte, len(points))
	err = parallel(e.nproc, len(points), func(i int) error {
		p := points[i]
		job := p.job()
		res, err := sim.Run(parts[pk{p.workload, p.variant}], job.Config)
		if err != nil {
			return err
		}
		blob, err := json.Marshal(serve.SimulateResponse{Workload: p.workload, Key: grid.Key(job), Result: res})
		bodies[i] = append(blob, '\n')
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("serve-mix reference: %w", err)
	}
	ref := &mixRef{body: make(map[point][]byte, len(points))}
	for i, b := range bodies {
		ref.body[points[i]] = b
	}
	return ref, nil
}

// check counts the stream's failed ops and reports why the first failed.
func (st *stream) check(ref *mixRef) (failed int, why error) {
	m := st.m
	keys := make(map[string]bool, len(m.points))
	for _, p := range m.points {
		keys[grid.Key(p.job())] = true
	}
	fail := func(err error) {
		failed++
		if why == nil {
			why = err
		}
	}
	jobBody := make(map[int][]byte)
	for _, r := range st.replies {
		if r.err == nil && r.op.kind == opJob {
			jobBody[r.op.pt] = append(append([]byte(nil), r.body...), '\n')
		}
	}
	repeated := make(map[int]bool)
	for _, r := range st.replies {
		want := ref.body[m.points[r.op.pt]]
		switch {
		case r.err != nil:
			fail(r.err)
		case r.op.kind == opJob && !bytes.Equal(jobBody[r.op.pt], want):
			fail(fmt.Errorf("job result for point %d differs from the direct reference", r.op.pt))
		case r.op.kind != opJob && !bytes.Equal(r.body, want):
			fail(fmt.Errorf("%s body for point %d differs from the direct reference", opNames[r.op.kind], r.op.pt))
		case r.op.kind == opWarm && jobBody[r.op.pt] != nil && !bytes.Equal(r.body, jobBody[r.op.pt]):
			fail(fmt.Errorf("sync body for point %d differs from its async job result", r.op.pt))
		case r.op.kind == opWarm && jobBody[r.op.pt] != nil:
			repeated[r.op.pt] = true
		}
	}
	for pt := range jobBody {
		if !repeated[pt] {
			fail(fmt.Errorf("async point %d was never compared with a sync body", pt))
		}
	}
	seen := make(map[string]bool)
	for _, s := range st.stored {
		if !keys[s.key] || seen[s.key] {
			fail(fmt.Errorf("engine stored unexpected or duplicate result %s", s.key))
		}
		seen[s.key] = true
	}
	if n := len(m.points); len(seen) != n || st.stats.Sims != int64(n) {
		fail(fmt.Errorf("stream ran %d sims and stored %d results; want %d fresh points simulated once", st.stats.Sims, len(seen), n))
	}
	return failed, why
}

func runServeMix(ctx context.Context, e *env) (*result, error) {
	var (
		bt    buildTimes
		setup []float64
	)
	// setupOnce builds the n-th stream and the programs it names, and brings
	// up a fresh instance; each is timed as one set-up sample.
	setupOnce := func(n int, traced bool) (*instance, *mix, error) {
		t0 := time.Now()
		m := newMix(e.seed, n)
		bt = buildTimes{}
		for _, w := range workloads.All() {
			var p *ir.Program
			bt.build = append(bt.build, timeMS(func() { p = w.Build() }))
			if err := ir.Validate(p); err != nil {
				return nil, nil, fmt.Errorf("workload %s: %w", w.Name, err)
			}
		}
		in, err := newInstance(ctx, e, traced)
		if err != nil {
			return nil, nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		return in, &m, nil
	}
	// Repeat the set-up before any stream runs: the journal's fsyncs would
	// otherwise flush the streams' cache and journal writes.
	for r := 0; r < setupRounds; r++ {
		n := len(setup)
		for moreSetup(setup[n:]) {
			in, _, err := setupOnce(0, false)
			if err != nil {
				return nil, err
			}
			in.close()
		}
	}
	// As in runBatch; an untraced run makes at least mixStreams streams.
	// A traced run's two streams are the same draw, so that their difference
	// is the tracing overhead.
	var streams []stream
	var mixes []*mix
	start := time.Now()
	for i := 0; i < 2 || (!e.trace && (i < mixStreams || time.Since(start) < e.seconds)); i++ {
		n := i
		if e.trace {
			n = 0
		}
		in, m, err := setupOnce(n, e.trace && i == 1)
		if err != nil {
			return nil, err
		}
		streams = append(streams, runStream(ctx, e, m, in))
		mixes = append(mixes, m)
		in.close()
	}

	ref, err := mixReference(e, mixes)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true}
	var passes []passOut
	for i := range streams {
		st := &streams[i]
		res.Attempted += len(st.replies)
		failed, why := st.check(ref)
		if failed > 0 {
			res.Correct = false
			e.note("stream %d: %d failed ops; first: %v", i, failed, why)
		}
		res.Failed += failed
		passes = append(passes, st.p)
		if n := st.resumes(); n > 0 {
			e.note("stream %d: %d job event streams closed before their terminal event and were resumed", i, n)
		}
	}
	for i, st := range streams {
		e.note("stream %d simulated: sims=%d instrs=%d cycles=%d", i, st.p.sims, st.p.instrs, st.p.cycles)
	}
	if !e.trace {
		res.Metrics = endToEnd(e, setup, passes, loadedTail)
		return res, nil
	}
	if streams[1].tr == nil {
		return nil, errors.New("traced stream failed")
	}
	lm, err := mixLayers(e, bt, streams[0], streams[1])
	if err != nil {
		return nil, err
	}
	res.Metrics = lm
	return res, nil
}

// relinkJobs moves each job's jobs.exec trace, which the manager roots on
// its own, under the program's serve.request span of the event stream that
// delivered the job's result, so the stream's waiting is not counted as
// serve's own time.
func relinkJobs(spans []spanRec) {
	handler := make(map[string]string) // event-stream serve.handler span ID -> job ID
	for _, s := range spans {
		if s.Name == "serve.handler" && s.Attrs["op"] == "events" {
			handler[s.ID] = strings.TrimSuffix(strings.TrimPrefix(s.Attrs["path"], "/v1/jobs/"), "/events")
		}
	}
	stream := make(map[string]spanRec) // job ID -> last event stream's serve.request span
	for _, s := range spans {
		if id, ok := handler[s.Parent]; ok && s.Name == "serve.request" {
			if h, ok := stream[id]; !ok || s.Start > h.Start {
				stream[id] = s
			}
		}
	}
	retrace := make(map[string]string)
	for i, s := range spans {
		if h, ok := stream[s.Attrs["job"]]; ok && s.Name == "jobs.exec" {
			retrace[s.Trace] = h.Trace
			spans[i].Parent = h.ID
		}
	}
	for i, s := range spans {
		if t, ok := retrace[s.Trace]; ok {
			spans[i].Trace = t
		}
	}
}

// resumes counts the stream's job event streams that closed before their
// terminal event.
func (st *stream) resumes() int {
	n := 0
	for _, r := range st.replies {
		n += r.resumes
	}
	return n
}

// mixLayers computes serve-mix's per-layer metrics from its untraced and
// traced streams.
func mixLayers(e *env, bt buildTimes, untraced, traced stream) (map[string]metric, error) {
	ls := newLayerSet()
	tp := traced.tr
	relinkJobs(tp.spans)
	if err := ls.common(e, "serve-mix", bt, untraced.p, traced.p, tp); err != nil {
		return nil, err
	}
	t := newTree(tp.spans)
	opOf := make(map[string]string) // trace -> op of the client request that started it
	for _, s := range tp.spans {
		if s.Name == "http.client" {
			opOf[s.Trace] = s.Attrs["op"]
		}
	}
	warmSims := 0
	for _, s := range tp.spans {
		if s.Name == "sim.run" && opOf[s.Trace] == "warm" {
			warmSims++
		}
	}
	memoP50 := ls["grid.memo_hit_us_p50"].Value
	ls.set("serve.warm_sim_runs", float64(warmSims))
	e.note("prediction warm serve-mix requests make zero sim.Run calls: %d (%s)", warmSims, verdict(warmSims == 0))

	handler := map[string][]float64{}
	var bytesOut float64
	shed := 0
	for _, s := range traced.handler {
		handler[s.Attrs["op"]] = append(handler[s.Attrs["op"]], s.ms())
		var n float64
		fmt.Sscan(s.Attrs["bytes"], &n)
		bytesOut += n
		if s.Attrs["status"] == "429" {
			shed++
		}
	}
	ls.set("serve.handler_cold_ms_p50", pct(handler["cold"], .5))
	ls.set("serve.handler_warm_ms_p50", pct(handler["warm"], .5))
	ls.set("serve.warm_self_us_p50", pct(handler["warm"], .5)*1e3-memoP50)
	ls.set("serve.resp_bytes", bytesOut)
	ls.set("serve.shed_429", float64(shed))
	ls.set("jobs.submit_ms_p50", pct(handler["submit"], .5))

	// Transport: a sync request's client span minus its server span.
	var transport []float64
	for i, s := range tp.spans {
		if s.Name != "serve.handler" || (s.Attrs["op"] != "cold" && s.Attrs["op"] != "warm") {
			continue
		}
		if p, ok := t.parent(i); ok {
			transport = append(transport, tp.spans[p].ms()-s.ms())
		}
	}
	ls.set("http.transport_ms_p50", pct(transport, .5))

	var queue, exec []float64
	for _, r := range traced.replies {
		if r.op.kind == opJob && r.err == nil {
			queue = append(queue, r.queueMS)
			exec = append(exec, r.execMS)
		}
	}
	ls.set("jobs.queue_ms_p50", pct(queue, .5))
	ls.set("jobs.exec_ms_p50", pct(exec, .5))
	ls.set("jobs.journal_bytes", float64(traced.journal))
	ls.set("jobs.sse_resumes", float64(traced.resumes()))
	ls.set("grid.cache_load_ms_p50", pct(tp.tally.loadMS, .5))
	ls.set("grid.cache_store_ms_p50", pct(tp.tally.saveMS, .5))
	ls.set("grid.cache_hit_ratio", ratio(float64(tp.tally.hits), float64(tp.tally.probes)))
	ls.set("grid.cache_probes", float64(tp.tally.probes))
	return ls, nil
}

// detachable serves through the handler attached to it until detach. An
// httptest server stays reachable for a few seconds after Close; without
// the detach its handler, and with it a whole engine of memoized results,
// would stay live into the next pass.
type detachable struct{ h atomic.Pointer[http.Handler] }

func (d *detachable) attach(h http.Handler) { d.h.Store(&h) }

func (d *detachable) detach() { d.h.Store(nil) }

func (d *detachable) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h := d.h.Load(); h != nil {
		(*h).ServeHTTP(w, r)
		return
	}
	http.Error(w, "server closed", http.StatusServiceUnavailable)
}
