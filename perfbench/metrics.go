package main

import "math"

// passOut is what one measured pass (a report, a corpus sweep or a request
// stream) produced, before checking.
type passOut struct {
	use    usage
	sims   int    // sim.Run executions
	instrs uint64 // simulated instructions over those executions
	cycles int64  // simulated cycles over those executions
	ops    int    // operations completed: grid jobs, or HTTP requests
	// Latency samples in milliseconds, by operation class.
	cold, warm, job []float64
}

// warmTail is how a workload summarises its slowest warm requests in
// sync_warm_tail_ms: the p-quantile, or with mean set the mean of the
// samples beyond it.
//
// Under serve-mix's load about one warm request in forty waits 5-40 ms for
// a processor held by a simulation and the collector, and the tail is that
// group: its p99 is a single sample inside it, which moves with how many of
// the group a run happens to catch, so serve-mix reports the mean of the
// slowest 1%. After a batch pass the machine is quiet, and the few requests
// beyond p99 are ones the host preempted for a few milliseconds: their mean
// and p99 measure the host, so paper-grid and corpus report p95.
type warmTail struct {
	p    float64
	mean bool
}

var (
	quietTail  = warmTail{p: .95}
	loadedTail = warmTail{p: .99, mean: true}
)

func (t warmTail) of(xs []float64) float64 {
	if t.mean {
		return worstMean(xs, t.p)
	}
	return pct(xs, t.p)
}

// endToEnd reduces a run's set-up samples and passes to the end-to-end
// metrics. Per-pass figures are medians over passes; latency percentiles
// pool every pass's samples.
func endToEnd(e *env, setup []float64, passes []passOut, tail warmTail) map[string]metric {
	var walls, mips, alloc, heap, rps []float64
	var cold, warm, job []float64
	for _, p := range passes {
		w := p.use.wall.Seconds()
		walls = append(walls, w)
		mips = append(mips, float64(p.instrs)/1e6/w)
		alloc = append(alloc, float64(p.use.allocBytes)/1e6/math.Max(1, float64(p.sims)))
		heap = append(heap, float64(p.use.peakHeap)/1e6)
		rps = append(rps, float64(p.ops)/w)
		cold = append(cold, p.cold...)
		warm = append(warm, p.warm...)
		job = append(job, p.job...)
	}
	for _, c := range []struct {
		name string
		n    int
		p    float64
	}{{"sync_cold_p90_ms", len(cold), .9}, {"sync_warm_tail_ms", len(warm), tail.p}, {"job_p90_ms", len(job), .9}} {
		if !supported(c.n, c.p) {
			e.note("%s rests on %d samples: fewer than ten lie beyond it", c.name, c.n)
		}
	}
	for _, c := range []struct {
		name string
		xs   []float64
	}{{"cold", cold}, {"warm", warm}, {"job", job}} {
		e.note("%s ms: p50=%.4g p90=%.4g p95=%.4g p98=%.4g p99=%.4g max=%.4g slowest-1%%-mean=%.4g (n=%d)", c.name,
			pct(c.xs, .5), pct(c.xs, .9), pct(c.xs, .95), pct(c.xs, .98), pct(c.xs, .99), pct(c.xs, 1), worstMean(c.xs, .99), len(c.xs))
	}
	e.note("samples: passes=%d cold=%d warm=%d job=%d; pass wall_s %v", len(passes), len(cold), len(warm), len(job), walls)
	for i, p := range passes {
		e.note("pass %d warm ms: p50=%.4g tail=%.4g (n=%d)", i, pct(p.warm, .5), tail.of(p.warm), len(p.warm))
	}
	return map[string]metric{
		"setup_s":           {median(setup), "s"},
		"wall_s":            {median(walls), "s"},
		"sim_minstr_per_s":  {median(mips), "Minstr/s"},
		"alloc_mb_per_sim":  {median(alloc), "MB"},
		"peak_heap_mb":      {median(heap), "MB"},
		"sync_cold_p50_ms":  {pct(cold, .5), "ms"},
		"sync_cold_p90_ms":  {pct(cold, .9), "ms"},
		"sync_warm_p50_ms":  {pct(warm, .5), "ms"},
		"sync_warm_tail_ms": {tail.of(warm), "ms"},
		"job_p50_ms":        {pct(job, .5), "ms"},
		"job_p90_ms":        {pct(job, .9), "ms"},
		"req_per_s":         {median(rps), "1/s"},
	}
}
