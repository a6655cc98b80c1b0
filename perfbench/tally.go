package main

import (
	"context"
	"sync"
	"time"

	"multiscalar/internal/grid"
	"multiscalar/internal/sim"
)

// tally is the grid.Cache seam every workload runs through. It forwards to
// an inner cache (nil = none: every probe misses and stores are dropped, so
// the engine behaves as with no cache at all) and records what the engine
// computed: each stored job and result. Recording costs a locked append per
// job; with an inner cache it also times the inner Load and Store calls.
type tally struct {
	inner grid.Cache

	mu     sync.Mutex
	probes int
	hits   int
	stored []stored
	loadMS []float64
	saveMS []float64
}

type stored struct {
	key string
	job grid.Job
	res *sim.Result
}

func newTally(inner grid.Cache) *tally {
	return &tally{inner: inner}
}

func (t *tally) Load(ctx context.Context, key string, job grid.Job) (*sim.Result, bool) {
	start := time.Now()
	var res *sim.Result
	var ok bool
	if t.inner != nil {
		res, ok = t.inner.Load(ctx, key, job)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.probes++
	if ok {
		t.hits++
	}
	if t.inner != nil {
		t.loadMS = append(t.loadMS, ms(time.Since(start)))
	}
	return res, ok
}

func (t *tally) Store(ctx context.Context, key string, job grid.Job, res *sim.Result) {
	start := time.Now()
	if t.inner != nil {
		t.inner.Store(ctx, key, job, res)
	}
	end := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.inner != nil {
		t.saveMS = append(t.saveMS, ms(end.Sub(start)))
	}
	t.stored = append(t.stored, stored{key: key, job: job, res: res})
}

// snapshot returns what was stored so far, the engine being idle. Results
// are copied: a *sim.Result from sim.Run points into the simulator that
// produced it, and holding it would keep that simulator's whole memory
// hierarchy alive after the engine is gone.
func (t *tally) snapshot() []stored {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]stored(nil), t.stored...)
	for i := range out {
		res := *out[i].res
		out[i].res = &res
	}
	return out
}

// totals sums simulated instructions and cycles over stored results.
func totals(st []stored) (instrs uint64, cycles int64) {
	for _, s := range st {
		instrs += s.res.Instrs
		cycles += s.res.Cycles
	}
	return instrs, cycles
}
