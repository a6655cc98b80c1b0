package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"multiscalar/internal/core"
	"multiscalar/internal/experiment"
	"multiscalar/internal/gen"
	"multiscalar/internal/grid"
	"multiscalar/internal/ir"
	"multiscalar/internal/obs/span"
	"multiscalar/internal/serve"
	"multiscalar/internal/sim"
	"multiscalar/internal/workloads"
)

// Pinned totals of the full report: a change meant only to make the
// simulator faster must leave them exactly as they are.
const (
	paperJobs   = 333
	paperInstrs = 24869258
	paperCycles = 17675447
)

// ablationNames are the workloads msreport's ablation section defaults to.
var ablationNames = []string{"compress", "perl", "vortex", "wave5", "tomcatv"}

var corpusPolicies = []string{"greedy", "roundrobin", "knapsack"}

// The corpus is msreport's documented -corpus seed:100. Its seed is fixed
// rather than taken from the workload seed: generated programs' dynamic
// sizes are heavy-tailed, so the total simulated instructions of a
// 100-program corpus vary about 2.4x from one corpus seed to another (114k
// to 275k per arm over seeds 21-25), and every corpus metric would measure
// the draw instead of the code.
const (
	corpusSeed     = 1
	corpusPrograms = 100
)

// batch is a workload whose pass is one experiment run on a fresh engine
// with no result cache.
type batch struct {
	name string
	jobs int // grid jobs one pass runs
	// passes is the fewest passes an untraced run makes, so that every run
	// pools about as many samples.
	passes int
	// warm lists /v1/simulate requests for results one pass memoizes.
	warm  []serve.SimulateRequest
	setup func(*buildTimes) error
	run   func(*experiment.Runner) (string, error)
	// check validates one pass's output and stored results after all timing
	// is over, and returns how many of its jobs were wrong.
	check func(out string, st []stored) (int, error)
}

// buildTimes records, per program, how long the last set-up took to build
// it (ms).
type buildTimes struct{ gen, build []float64 }

func timeMS(fn func()) float64 {
	t0 := time.Now()
	fn()
	return ms(time.Since(t0))
}

func runPaperGrid(ctx context.Context, e *env) (*result, error) {
	var golden string
	return runBatch(ctx, e, batch{
		name:   "paper-grid",
		jobs:   paperJobs,
		passes: 2,
		warm:   fig5Requests(),
		setup: func(bt *buildTimes) error {
			blob, err := os.ReadFile(filepath.Join(e.root, "report_full.txt"))
			if err != nil {
				return err
			}
			golden = string(blob)
			for _, w := range workloads.All() {
				var p *ir.Program
				bt.build = append(bt.build, timeMS(func() { p = w.Build() }))
				if err := ir.Validate(p); err != nil {
					return fmt.Errorf("workload %s: %w", w.Name, err)
				}
			}
			return nil
		},
		run: paperReport,
		check: func(out string, st []stored) (int, error) {
			if out != golden {
				return paperJobs, errors.New("paper-grid report differs from report_full.txt")
			}
			instrs, cycles := totals(st)
			if len(st) != paperJobs || instrs != paperInstrs || cycles != paperCycles {
				return paperJobs, fmt.Errorf("paper-grid ran %d sims, %d instrs, %d cycles; pinned %d, %d, %d",
					len(st), instrs, cycles, paperJobs, paperInstrs, paperCycles)
			}
			return 0, nil
		},
	})
}

// paperReport is msreport -experiment all, written to a string.
func paperReport(r *experiment.Runner) (string, error) {
	var b strings.Builder
	cells, err := experiment.Figure5(r, nil, nil)
	if err != nil {
		return "", err
	}
	b.WriteString(experiment.FormatFigure5(cells))
	b.WriteString(experiment.FormatSummary(experiment.Summarize(cells)))
	b.WriteString("\n")
	rows, err := experiment.Table1(r, nil)
	if err != nil {
		return "", err
	}
	b.WriteString(experiment.FormatTable1(rows))
	b.WriteString("\n")
	for i, a := range []struct {
		title string
		run   func() ([]experiment.AblationRow, error)
	}{
		{"hardware target limit N", func() ([]experiment.AblationRow, error) { return experiment.AblationTargets(r, ablationNames, nil) }},
		{"memory dependence synchronization", func() ([]experiment.AblationRow, error) { return experiment.AblationSync(r, ablationNames) }},
		{"register ring bandwidth", func() ([]experiment.AblationRow, error) { return experiment.AblationRing(r, ablationNames, nil) }},
		{"L1 D-cache banks", func() ([]experiment.AblationRow, error) { return experiment.AblationBanks(r, ablationNames, nil) }},
		{"greedy vs first-fit task growth", func() ([]experiment.AblationRow, error) { return experiment.AblationGreedy(r, ablationNames) }},
	} {
		rows, err := a.run()
		if err != nil {
			return "", err
		}
		if i > 0 {
			b.WriteString("\n")
		}
		b.WriteString(experiment.FormatAblation(a.title, rows))
	}
	return b.String(), nil
}

func runCorpus(ctx context.Context, e *env) (*result, error) {
	spec := experiment.CorpusSpec{Seed: corpusSeed, N: corpusPrograms, Policies: corpusPolicies}
	arms := 3 + len(corpusPolicies)
	var ref *corpusRef
	return runBatch(ctx, e, batch{
		name:   "corpus",
		jobs:   corpusPrograms * arms,
		passes: 2,
		warm:   corpusRequests(spec),
		setup: func(bt *buildTimes) error {
			for i := 0; i < corpusPrograms; i++ {
				var p *ir.Program
				bt.gen = append(bt.gen, timeMS(func() { p = gen.Generate(gen.CorpusParams(corpusSeed, i)) }))
				if err := ir.Validate(p); err != nil {
					return fmt.Errorf("corpus program %d: %w", i, err)
				}
			}
			return nil
		},
		run: func(r *experiment.Runner) (string, error) {
			rows, err := r.Corpus(spec)
			if err != nil {
				return "", err
			}
			return experiment.FormatCorpus(spec, rows), nil
		},
		check: func(out string, st []stored) (int, error) {
			if ref == nil {
				var err error
				if ref, err = corpusReference(e, spec); err != nil {
					return 0, err
				}
			}
			if out != ref.out {
				return corpusPrograms * arms, errors.New("corpus scoreboard differs from the direct reference")
			}
			failed := 0
			seen := make(map[string]bool)
			for _, s := range st {
				want, ok := ref.byKey[s.key]
				if !ok || seen[s.key] || !reflect.DeepEqual(*want, *s.res) {
					failed++
				}
				seen[s.key] = true
			}
			failed += len(ref.byKey) - len(seen)
			if failed > 0 {
				return failed, fmt.Errorf("%d corpus results differ from the direct reference", failed)
			}
			return 0, nil
		},
	})
}

// corpusRef is the corpus computed without the grid or the experiment
// layer: core.Select and sim.Run called directly on every (program, arm).
type corpusRef struct {
	byKey map[string]*sim.Result
	out   string
}

func corpusReference(e *env, spec experiment.CorpusSpec) (*corpusRef, error) {
	arms := []struct {
		label string
		opts  core.Options
	}{
		{"basic block", core.Options{Heuristic: core.BasicBlock}},
		{"control flow", core.Options{Heuristic: core.ControlFlow}},
		{"data dependence", core.Options{Heuristic: core.DataDependence}},
	}
	for _, p := range spec.Policies {
		arms = append(arms, struct {
			label string
			opts  core.Options
		}{"policy:" + p, core.Options{Heuristic: core.ControlFlow, Policy: p}})
	}
	n := spec.N
	names := make([]string, n)
	progs := make([]*ir.Program, n)
	for i := range names {
		p := gen.CorpusParams(spec.Seed, i)
		names[i] = p.Key()
		progs[i] = gen.Generate(p)
	}
	cfg := sim.DefaultConfig(4)
	type slot struct {
		stats core.Stats
		res   *sim.Result
	}
	slots := make([]slot, len(arms)*n)
	err := parallel(e.nproc, len(slots), func(idx int) error {
		arm, prog := arms[idx/n], idx%n
		part, err := core.Select(progs[prog], arm.opts)
		if err != nil {
			return err
		}
		res, err := sim.Run(part, cfg)
		if err != nil {
			return err
		}
		kept := *res // see tally.snapshot
		slots[idx] = slot{stats: core.ComputeStats(part), res: &kept}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("corpus reference: %w", err)
	}
	ref := &corpusRef{byKey: make(map[string]*sim.Result, len(slots))}
	rows := make([]experiment.CorpusRow, len(arms))
	for a, arm := range arms {
		row := experiment.CorpusRow{Arm: arm.label, Programs: n}
		var createRegs, targets float64
		var instrs, instances uint64
		for i := 0; i < n; i++ {
			s := slots[a*n+i]
			ref.byKey[grid.Key(grid.Job{Workload: names[i], Select: arm.opts, Config: cfg})] = s.res
			row.Tasks += s.stats.Tasks
			createRegs += s.stats.AvgCreateRegs * float64(s.stats.Tasks)
			targets += s.stats.AvgTargets * float64(s.stats.Tasks)
			row.Cycles += s.res.Cycles
			instrs += s.res.Instrs
			instances += s.res.TaskInstances
		}
		if row.Tasks > 0 {
			row.AvgCreateRegs = createRegs / float64(row.Tasks)
			row.AvgTargets = targets / float64(row.Tasks)
		}
		if instances > 0 {
			row.AvgTaskSize = float64(instrs) / float64(instances)
		}
		if row.Cycles > 0 {
			row.IPC = float64(instrs) / float64(row.Cycles)
		}
		rows[a] = row
	}
	ref.out = experiment.FormatCorpus(spec, rows)
	return ref, nil
}

// parallel runs fn(0..n-1) on workers goroutines and returns the first
// error.
func parallel(workers, n int, fn func(i int) error) error {
	next := make(chan int)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var first error
			for i := range next {
				if first == nil {
					first = fn(i)
				}
			}
			errs <- first
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// warmWindow is how long warm requests follow each batch pass. Requests
// this short vary with the machine's state over a second or two; a longer
// window averages it out.
const warmWindow = 3 * time.Second

// warmBallast is the most a warm window may allocate. A pass ends with
// nearly all of its heap live (the memo), so without it the window's
// allocations would grow the heap from fresh pages, and each page fault
// costs a warm request more than the request itself, by an amount that
// varies from run to run with the host's memory. settleHeap faults in this
// much heap and frees it before the window, and the window ends early once
// it has allocated that much, so its requests reuse pages the process
// already holds, as a long-running server's do.
const warmBallast = 512 << 20

// settleHeap touches n bytes of fresh heap, drops them and collects, so
// that about n bytes of free, faulted-in pages follow.
func settleHeap(n int) {
	b := make([]byte, n)
	for i := 0; i < len(b); i += 4096 {
		b[i] = 1
	}
	runtime.KeepAlive(b)
	b = nil
	runtime.GC()
}

// allocated is the bytes the process has allocated so far.
func allocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// batchPass is one measured pass: the experiment on a fresh engine, then
// warmWindow of /v1/simulate requests for its results to a server on the
// same engine (see warmProbe), each answered from the engine's memo.
type batchPass struct {
	out      string
	st       []stored
	p        passOut
	err      error
	warmFail int
	tr       *tracedPass // traced passes only
}

// tracedPass is what a traced pass leaves for the per-layer metrics.
type tracedPass struct {
	spans   []spanRec
	sims    []simCall
	simSpan []int // per sim call, its index in spans
	orphans int   // sim calls made outside any traced grid.run
	stats   grid.Stats
	tally   *tally
}

func runBatchPass(ctx context.Context, e *env, b batch, traced bool) batchPass {
	t := newTally(nil)
	eng := grid.New(grid.Options{Workers: e.nproc, Cache: t})
	rec := &simRecorder{}
	defer grid.SetSimForTesting(rec.run)()
	pctx := ctx
	var tracer *span.Tracer
	var root *span.Span
	if traced {
		tracer = span.New(span.Options{Process: "perfbench", MaxSpansPerTrace: 1 << 22, Ring: 4})
		pctx, root = tracer.StartRoot(ctx, "bench.pass")
		root.SetAttr("workload", b.name)
	}
	var bp batchPass
	bp.p.use, bp.err = measure(func() error {
		var err error
		bp.out, err = b.run(experiment.NewRunnerOn(eng).WithContext(pctx))
		return err
	})
	root.End(bp.err)
	if bp.err != nil {
		return bp
	}
	bp.st = t.snapshot()
	stats := eng.Stats()
	calls := rec.snapshot()
	bp.p.sims = int(stats.Sims)
	bp.p.instrs, bp.p.cycles = totals(bp.st)
	bp.p.ops = len(bp.st)
	bp.p.job = []float64{ms(bp.p.use.wall)}
	for _, c := range calls {
		bp.p.cold = append(bp.p.cold, float64(c.end-c.start)/1e6)
	}
	// A collection first, so that whether a cycle of the pass's large heap
	// falls among the warm requests is not left to chance, and free pages
	// for the window to allocate from (see warmBallast).
	settleHeap(warmBallast)
	a0, t0 := allocated(), time.Now()
	bp.p.warm, bp.warmFail, bp.err = warmProbe(eng, b.warm, bp.st)
	e.note("warm window: %.2f s, %d MB allocated", time.Since(t0).Seconds(), (allocated()-a0)>>20)
	if bp.err != nil {
		return bp
	}
	if eng.Stats().Sims != stats.Sims {
		bp.err = errors.New("warm requests ran simulations: the memo missed")
	}
	if traced {
		spans, idx, orphans := attachSims(&ids{prefix: "be"}, programSpans(tracer), calls)
		bp.tr = &tracedPass{spans: spans, sims: calls, simSpan: idx, orphans: orphans, stats: stats, tally: t}
	}
	return bp
}

func runBatch(ctx context.Context, e *env, b batch) (*result, error) {
	var setup []float64
	var bt buildTimes
	// A round of set-ups goes before each pass, so that setup_s samples the
	// machine over the whole run rather than its first moments.
	setUp := func() error {
		var round []float64
		for moreSetup(round) {
			bt = buildTimes{}
			t0 := time.Now()
			if err := b.setup(&bt); err != nil {
				return err
			}
			round = append(round, time.Since(t0).Seconds())
		}
		setup = append(setup, round...)
		return nil
	}
	// An untraced run makes at least b.passes passes and repeats them until
	// --seconds is used up; a traced run makes one untraced pass and one
	// traced pass, whose difference is the tracing overhead.
	var passes []batchPass
	start := time.Now()
	for i := 0; i < 2 || (!e.trace && (i < b.passes || time.Since(start) < e.seconds)); i++ {
		if err := setUp(); err != nil {
			return nil, err
		}
		passes = append(passes, runBatchPass(ctx, e, b, e.trace && i == 1))
	}
	res := &result{Correct: true}
	var measured []passOut
	for i, bp := range passes {
		res.Attempted += b.jobs + len(bp.p.warm) + bp.warmFail
		failed := bp.warmFail
		if bp.err != nil {
			e.note("pass %d: %v", i, bp.err)
			failed += b.jobs
		} else if n, err := b.check(bp.out, bp.st); err != nil {
			e.note("pass %d: %v", i, err)
			failed += max(n, 1)
		}
		if failed > 0 {
			res.Correct = false
		}
		res.Failed += failed
		if bp.err == nil {
			measured = append(measured, bp.p)
		}
	}
	if n := len(passes); n > 1 && passes[0].err == nil && passes[n-1].err == nil {
		i0, c0 := totals(passes[0].st)
		i1, c1 := totals(passes[n-1].st)
		if i0 != i1 || c0 != c1 {
			res.Correct = false
			e.note("simulated totals differ between passes: %d/%d vs %d/%d instrs/cycles", i0, c0, i1, c1)
		}
	}
	i0, c0 := totals(passes[0].st)
	e.note("simulated: sims=%d instrs=%d cycles=%d", len(passes[0].st), i0, c0)
	if !e.trace {
		res.Metrics = endToEnd(e, setup, measured, quietTail)
		return res, nil
	}
	if passes[1].tr == nil {
		return nil, fmt.Errorf("traced pass failed: %v", passes[1].err)
	}
	lm, err := batchLayers(e, b.name, bt, passes[0], passes[1])
	if err != nil {
		return nil, err
	}
	res.Metrics = lm
	return res, nil
}

// warmProbe sends /v1/simulate requests for the pass's results over HTTP
// to a server on eng for warmWindow or until they have allocated most of
// warmBallast, from a closed loop of mixClients clients cycling through
// reqs as serve-mix's clients do. A client checks its first body for each
// request against the result the engine stored for its key, and every later
// body for it byte for byte against that first one, which keeps the client's
// own work and allocation out of the requests it times. It returns the
// latencies and the failed requests.
func warmProbe(eng *grid.Engine, reqs []serve.SimulateRequest, st []stored) ([]float64, int, error) {
	want := make(map[string]*sim.Result, len(st))
	for _, s := range st {
		want[s.key] = s.res
	}
	blobs := make([][]byte, len(reqs))
	for i, r := range reqs {
		var err error
		if blobs[i], err = json.Marshal(r); err != nil {
			return nil, 0, err
		}
	}
	h := &detachable{}
	h.attach(serve.New(serve.Config{Engine: eng}).Handler())
	hs := httptest.NewServer(h)
	defer h.detach()
	defer hs.Close()
	lat := make([][]float64, mixClients)
	failed := make([]int, mixClients)
	var next atomic.Int64
	var done atomic.Bool
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		deadline := time.Now().Add(warmWindow)
		budget := allocated() + warmBallast*3/4
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for range tick.C {
			if time.Now().After(deadline) || allocated() > budget {
				done.Store(true)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for c := range lat {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			seen := make([][]byte, len(reqs))
			var buf bytes.Buffer
			for !done.Load() {
				i := int(next.Add(1)) % len(reqs)
				t0 := time.Now()
				resp, err := hs.Client().Post(hs.URL+"/v1/simulate", "application/json", bytes.NewReader(blobs[i]))
				if err != nil {
					failed[c]++
					continue
				}
				buf.Reset()
				_, err = buf.ReadFrom(resp.Body)
				resp.Body.Close()
				lat[c] = append(lat[c], ms(time.Since(t0)))
				body := buf.Bytes()
				switch {
				case err != nil || resp.StatusCode != http.StatusOK:
					failed[c]++
				case seen[i] != nil:
					if !bytes.Equal(body, seen[i]) {
						failed[c]++
					}
				default:
					var got serve.SimulateResponse
					if json.Unmarshal(body, &got) != nil || got.Result == nil || want[got.Key] == nil ||
						!reflect.DeepEqual(*got.Result, *want[got.Key]) {
						failed[c]++
						continue
					}
					seen[i] = bytes.Clone(body)
				}
			}
		}(c)
	}
	wg.Wait()
	<-watched
	var all []float64
	n := 0
	for c := range lat {
		all = append(all, lat[c]...)
		n += failed[c]
	}
	return all, n, nil
}

// fig5Requests is every Figure 5 point as a /v1/simulate request.
func fig5Requests() []serve.SimulateRequest {
	var reqs []serve.SimulateRequest
	for _, p := range fig5Points() {
		reqs = append(reqs, p.request())
	}
	return reqs
}

// corpusRequests is every (program, arm) of the corpus as a /v1/simulate
// request.
func corpusRequests(spec experiment.CorpusSpec) []serve.SimulateRequest {
	arms := []serve.SelectOptions{{Heuristic: "bb"}, {Heuristic: "cf"}, {Heuristic: "dd"}}
	for _, p := range spec.Policies {
		arms = append(arms, serve.SelectOptions{Heuristic: "cf", Policy: p})
	}
	var reqs []serve.SimulateRequest
	for i := 0; i < spec.N; i++ {
		name := gen.CorpusParams(spec.Seed, i).Key()
		for _, a := range arms {
			reqs = append(reqs, serve.SimulateRequest{Workload: name, Select: a, Machine: serve.MachineConfig{PUs: spec.Machine.PUs}})
		}
	}
	return reqs
}
