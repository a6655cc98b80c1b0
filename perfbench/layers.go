package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"multiscalar/internal/core"
	"multiscalar/internal/emu"
	"multiscalar/internal/ir"
	"multiscalar/internal/mem"
	"multiscalar/internal/sim"
)

// perLayer lists every per-layer metric with its unit. A layer a workload
// does not exercise reads 0. perfbench/README.md says which end-to-end
// metric each one should move, on which workload.
var perLayer = []struct{ name, unit string }{
	{"sim.run_ms_total", "ms"},
	{"sim.run_ms_p50", "ms"},
	{"sim.run_ms_p95", "ms"},
	{"sim.runs", "count"},
	{"sim.runs_untraced", "count"},
	{"sim.ns_per_instr", "ns"},
	{"sim.alloc_mb_per_run", "MB"},
	{"sim.mallocs_per_run", "count"},
	{"sim.instrs_total", "count"},
	{"sim.cycles_total", "count"},
	{"sim.configs_per_partition", "ratio"},
	{"sim.share_of_worker_busy", "ratio"},
	{"mem.hierarchy_new_ms_p50", "ms"},
	{"mem.hierarchy_new_reused_ms_p50", "ms"},
	{"mem.hierarchy_new_mb", "MB"},
	{"mem.hierarchy_new_mallocs", "count"},
	{"mem.hierarchy_share_of_sim", "ratio"},
	{"core.walk_ms_total", "ms"},
	{"core.select_calls", "count"},
	{"core.select_ms_p50", "ms"},
	{"core.select_ms_total", "ms"},
	{"emu.minstr_per_s", "Minstr/s"},
	{"gen.generate_ms_total", "ms"},
	{"workloads.build_ms_total", "ms"},
	{"grid.worker_busy_ms", "ms"},
	{"grid.wait_ms_p50", "ms"},
	{"grid.memo_hit_us_p50", "us"},
	{"grid.cache_load_ms_p50", "ms"},
	{"grid.cache_store_ms_p50", "ms"},
	{"grid.cache_hit_ratio", "ratio"},
	{"grid.cache_probes", "count"},
	{"grid.dedup", "count"},
	{"serve.handler_cold_ms_p50", "ms"},
	{"serve.handler_warm_ms_p50", "ms"},
	{"serve.warm_self_us_p50", "us"},
	{"serve.resp_bytes", "bytes"},
	{"serve.shed_429", "count"},
	{"serve.warm_sim_runs", "count"},
	{"http.transport_ms_p50", "ms"},
	{"jobs.submit_ms_p50", "ms"},
	{"jobs.queue_ms_p50", "ms"},
	{"jobs.exec_ms_p50", "ms"},
	{"jobs.journal_bytes", "bytes"},
	{"jobs.sse_resumes", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"self.experiment_ms", "ms"},
	{"self.core_ms", "ms"},
	{"self.grid_ms", "ms"},
	{"self.sim_ms", "ms"},
	{"self.serve_ms", "ms"},
	{"self.jobs_ms", "ms"},
	{"self.http_ms", "ms"},
	{"trace.untraced_wall_s", "s"},
	{"trace.traced_wall_s", "s"},
	{"trace.overhead_s", "s"},
	{"trace.spans", "count"},
}

// layerSet accumulates per-layer values; set rejects names not in perLayer.
type layerSet map[string]metric

func newLayerSet() layerSet {
	ls := make(layerSet, len(perLayer))
	for _, m := range perLayer {
		ls[m.name] = metric{0, m.unit}
	}
	return ls
}

func (ls layerSet) set(name string, v float64) {
	m, ok := ls[name]
	if !ok {
		panic("perfbench: unknown per-layer metric " + name)
	}
	m.Value = v
	ls[name] = m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// common fills the metrics every workload with simulations shares: the sim,
// mem, core, emu and grid-wait figures from a traced pass, the runtime
// figures from the untraced pass, self times, and tracing overhead. It
// writes the Chrome trace of the traced pass under the work directory.
func (ls layerSet) common(e *env, name string, bt buildTimes, untraced, traced passOut, tp *tracedPass) error {
	t := newTree(tp.spans)

	var runMS []float64
	var instrs uint64
	var cycles int64
	var inSlots float64 // run time of the calls made inside a traced worker slot
	for i, c := range tp.sims {
		runMS = append(runMS, float64(c.end-c.start)/1e6)
		instrs += c.res.Instrs
		cycles += c.res.Cycles
		if tp.spans[tp.simSpan[i]].Parent != "" {
			inSlots += runMS[i]
		}
	}
	runTotal := sum(runMS)
	ls.set("sim.run_ms_total", runTotal)
	ls.set("sim.run_ms_p50", pct(runMS, .5))
	ls.set("sim.run_ms_p95", pct(runMS, .95))
	ls.set("sim.runs", float64(len(tp.sims)))
	ls.set("sim.runs_untraced", float64(tp.orphans))
	if tp.orphans > 0 {
		e.note("%d of %d sim.Run calls ran under a context with no span (no grid.run parent)", tp.orphans, len(tp.sims))
	}
	ls.set("sim.ns_per_instr", ratio(runTotal*1e6, float64(instrs)))
	ls.set("sim.instrs_total", float64(instrs))
	ls.set("sim.cycles_total", float64(cycles))
	ls.set("sim.configs_per_partition", ratio(float64(tp.stats.Sims), float64(tp.stats.Partitions)))

	// Worker-busy time is what ran inside grid worker slots: partitions and
	// simulations.
	var busy, selectMS []float64
	for _, s := range tp.spans {
		switch s.Name {
		case "grid.sim-exec":
			busy = append(busy, s.ms())
		case "grid.partition":
			busy = append(busy, s.ms())
			selectMS = append(selectMS, s.ms())
		}
	}
	ls.set("grid.worker_busy_ms", sum(busy))
	ls.set("sim.share_of_worker_busy", ratio(inSlots, sum(busy)))
	ls.set("core.select_calls", float64(tp.stats.Partitions))
	ls.set("core.select_ms_p50", pct(selectMS, .5))
	ls.set("core.select_ms_total", sum(selectMS))

	var wait []float64
	for c, i := range tp.simSpan {
		if run, ok := t.ancestor(i, "grid.run"); ok {
			wait = append(wait, float64(tp.sims[c].start-t.spans[run].Start)/1e6)
		}
	}
	ls.set("grid.wait_ms_p50", pct(wait, .5))
	// A grid.run with no child span found its result in the memo.
	var memo []float64
	for _, s := range t.spans {
		if s.Name == "grid.run" && len(t.children[s.Trace+s.ID]) == 0 {
			memo = append(memo, s.ms()*1e3)
		}
	}
	ls.set("grid.memo_hit_us_p50", pct(memo, .5))
	ls.set("grid.dedup", float64(tp.stats.Deduped))
	ls.set("gen.generate_ms_total", sum(bt.gen))
	ls.set("workloads.build_ms_total", sum(bt.build))

	hier, err := ls.direct(tp.sims)
	if err != nil {
		return err
	}
	ls.set("mem.hierarchy_share_of_sim", ratio(hier, runTotal))

	ls.set("runtime.gc_cycles", float64(untraced.use.gcCycles))
	ls.set("runtime.gc_cpu_frac", ratio(untraced.use.gcCPU, untraced.use.totalCPU))
	self := t.selfByLayer()
	for _, l := range []string{"experiment", "core", "grid", "sim", "serve", "jobs", "http"} {
		ls.set("self."+l+"_ms", self[l])
	}
	ls.set("trace.untraced_wall_s", untraced.use.wall.Seconds())
	ls.set("trace.traced_wall_s", traced.use.wall.Seconds())
	ls.set("trace.overhead_s", traced.use.wall.Seconds()-untraced.use.wall.Seconds())
	ls.set("trace.spans", float64(len(tp.spans)))

	path := filepath.Join(e.work, fmt.Sprintf("trace-%s-%d.json", name, e.seed))
	if err := writeChrome(path, tp.spans); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	e.note("chrome trace: %s (%d spans)", path, len(tp.spans))
	return nil
}

// allocSample is how many simulations are re-run alone to measure
// allocation per sim.Run exactly.
const allocSample = 6

// direct calls mem.NewHierarchy, core.WalkTasks, emu.Machine.Run and
// sim.Run on the traced pass's own inputs, one at a time, and returns the
// summed hierarchy construction time over all simulations (ms).
func (ls layerSet) direct(calls []simCall) (float64, error) {
	// mem.NewHierarchy, timed per distinct configuration, two ways. In a
	// pass every memoized result keeps its simulator, and so its
	// hierarchy, alive, so each construction takes fresh pages from the
	// operating system: the first timing holds every hierarchy it builds,
	// after returning free memory to the system. The second collects
	// before each call, so the call reuses the pages the last one freed,
	// as it would if results did not hold their simulators.
	type hcost struct {
		ms, reusedMS float64
		bytes, objs  uint64
	}
	costs := make(map[mem.Config]hcost)
	var hierMS, reusedMS, hierMB, hierObjs []float64
	for _, c := range calls {
		mc := c.cfg.Mem
		if mc.NumPUs == 0 {
			mc.NumPUs = c.cfg.NumPUs
		}
		hc, ok := costs[mc]
		if !ok {
			var fresh, reused []float64
			var held []*mem.Hierarchy
			debug.FreeOSMemory()
			for i := 0; i < 6; i++ {
				fresh = append(fresh, timeMS(func() { held = append(held, mem.NewHierarchy(mc)) }))
			}
			held = nil
			for i := 0; i < 6; i++ {
				runtime.GC()
				reused = append(reused, timeMS(func() { mem.NewHierarchy(mc) }))
			}
			hc.ms, hc.reusedMS = median(fresh), median(reused)
			hc.bytes, hc.objs = allocsOf(func() { mem.NewHierarchy(mc) })
			costs[mc] = hc
		}
		hierMS = append(hierMS, hc.ms)
		reusedMS = append(reusedMS, hc.reusedMS)
		hierMB = append(hierMB, float64(hc.bytes)/1e6)
		hierObjs = append(hierObjs, float64(hc.objs))
	}
	ls.set("mem.hierarchy_new_ms_p50", pct(hierMS, .5))
	ls.set("mem.hierarchy_new_reused_ms_p50", pct(reusedMS, .5))
	ls.set("mem.hierarchy_new_mb", median(hierMB))
	ls.set("mem.hierarchy_new_mallocs", median(hierObjs))

	// core.WalkTasks once per distinct partition, and the emulator with
	// profiling on (as core.Select runs it) once per distinct program.
	walked := make(map[*core.Partition]bool)
	emulated := make(map[*ir.Program]bool)
	var walkMS, emuMS float64
	var emuInstrs uint64
	for _, c := range calls {
		if !walked[c.part] {
			walked[c.part] = true
			var err error
			walkMS += timeMS(func() { err = core.WalkTasks(c.part, c.cfg.MaxInstrs, func(core.TaskExec) {}) })
			if err != nil {
				return 0, fmt.Errorf("core.WalkTasks: %w", err)
			}
		}
		if !emulated[c.part.Prog] {
			emulated[c.part.Prog] = true
			m := emu.New(c.part.Prog)
			m.EnableProfile()
			var err error
			t0 := time.Now()
			err = m.Run(c.part.Opts.ProfileBudget)
			emuMS += ms(time.Since(t0))
			if err != nil {
				return 0, fmt.Errorf("emu.Machine.Run: %w", err)
			}
			emuInstrs += m.Count
		}
	}
	ls.set("core.walk_ms_total", walkMS)
	ls.set("emu.minstr_per_s", ratio(float64(emuInstrs)/1e6, emuMS/1e3))

	// sim.Run alone on an even sample of the pass's simulations, for exact
	// allocation per run.
	sorted := append([]simCall(nil), calls...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].start < sorted[j].start })
	var mb, objs []float64
	for k := 0; k < allocSample && k < len(sorted); k++ {
		c := sorted[k*len(sorted)/min(allocSample, len(sorted))]
		var err error
		b, o := allocsOf(func() { _, err = sim.Run(c.part, c.cfg) })
		if err != nil {
			return 0, fmt.Errorf("sim.Run: %w", err)
		}
		mb = append(mb, float64(b)/1e6)
		objs = append(objs, float64(o))
	}
	ls.set("sim.alloc_mb_per_run", sum(mb)/float64(len(mb)))
	ls.set("sim.mallocs_per_run", sum(objs)/float64(len(objs)))
	return sum(hierMS), nil
}

// batchLayers computes the per-layer metrics of a batch workload from its
// untraced and traced passes, and checks the layer split the benchmark
// predicts for it.
func batchLayers(e *env, name string, bt buildTimes, untraced, traced batchPass) (map[string]metric, error) {
	ls := newLayerSet()
	tp := traced.tr
	if err := ls.common(e, name, bt, untraced.p, traced.p, tp); err != nil {
		return nil, err
	}
	ls.set("grid.cache_hit_ratio", ratio(float64(tp.tally.hits), float64(tp.tally.probes)))
	ls.set("grid.cache_probes", float64(tp.tally.probes))
	switch name {
	case "paper-grid":
		share := ls["sim.share_of_worker_busy"].Value
		e.note("prediction sim.run_ms_total >= 0.90 of worker-busy time on paper-grid: %.3f (%s)", share, verdict(share >= 0.9))
	case "corpus":
		share := ls["mem.hierarchy_share_of_sim"].Value
		e.note("prediction mem.NewHierarchy >= 1/2 of sim.run_ms on corpus: %.3f (%s)", share, verdict(share >= 0.5))
	}
	return ls, nil
}

func verdict(ok bool) string {
	if ok {
		return "holds"
	}
	return "FAILS"
}
