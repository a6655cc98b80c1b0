package dist_test

import (
	"context"
	"io"
	"log"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"multiscalar/internal/core"
	"multiscalar/internal/dist"
	"multiscalar/internal/grid"
	"multiscalar/internal/serve"
	"multiscalar/internal/sim"
)

// TestDistributedEndToEnd drives the whole stack in-process: a leader
// (scheduler + HTTP surface + local loop) and two HTTP workers whose cache
// tiers point back at the leader, running a small job grid. The distributed
// results must equal a serial engine's results index for index, and the
// remote workers must have actually participated.
func TestDistributedEndToEnd(t *testing.T) {
	// A deterministic fake sim, slow enough that the local loop cannot
	// drain the queue before the workers pull their share.
	restore := grid.SetSimForTesting(func(part *core.Partition, cfg sim.Config) (*sim.Result, error) {
		time.Sleep(5 * time.Millisecond)
		return &sim.Result{
			IPC:    float64(cfg.NumPUs) + float64(len(part.Tasks))/1000,
			Cycles: int64(cfg.NumPUs * 100),
			Instrs: uint64(len(part.Tasks)),
		}, nil
	})
	t.Cleanup(restore)

	var jobs []grid.Job
	for _, wl := range []string{"compress", "go", "tomcatv"} {
		for _, pus := range []int{2, 4, 6, 8} {
			for _, h := range []core.Heuristic{core.BasicBlock, core.ControlFlow} {
				jobs = append(jobs, grid.Job{
					Workload: wl,
					Select:   core.Options{Heuristic: h},
					Config:   sim.DefaultConfig(pus),
				})
			}
		}
	}

	// Serial reference.
	serial := make([]*sim.Result, len(jobs))
	serialEng := grid.New(grid.Options{Workers: 2})
	if err := grid.RunAll(context.Background(), len(jobs), func(i int) error {
		res, err := serialEng.RunCtx(context.Background(), jobs[i])
		serial[i] = res
		return err
	}); err != nil {
		t.Fatal(err)
	}

	// Distributed: leader engine + scheduler + HTTP surface.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sched := dist.NewScheduler(dist.SchedOptions{})
	cache := dist.NewTiered(dist.NewLRU(256))
	eng := grid.New(grid.Options{Workers: 2, Cache: cache, Dispatcher: sched})
	ts := httptest.NewServer(serve.New(serve.Config{Engine: eng, Cache: cache, Fleet: sched}).Handler())
	defer ts.Close()

	var localDone sync.WaitGroup
	localDone.Add(1)
	go func() {
		defer localDone.Done()
		sched.RunLocal(ctx, 1, eng.ComputeCtx)
	}()

	workerErrs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		weng := grid.New(grid.Options{
			Workers: 2,
			Cache:   dist.NewTiered(dist.NewLRU(256), dist.NewRemoteCache(ts.URL, dist.RemoteOptions{Backoff: time.Millisecond})),
		})
		w, err := dist.NewWorker(dist.WorkerOptions{
			Leader:       ts.URL,
			Engine:       weng,
			Concurrency:  2,
			PollInterval: 5 * time.Millisecond,
			Logger:       log.New(io.Discard, "", 0),
		})
		if err != nil {
			t.Fatal(err)
		}
		go func() { workerErrs <- w.Run(ctx) }()
	}

	got := make([]*sim.Result, len(jobs))
	if err := grid.RunAll(ctx, len(jobs), func(i int) error {
		res, err := eng.RunCtx(ctx, jobs[i])
		got[i] = res
		return err
	}); err != nil {
		t.Fatal(err)
	}

	// Determinism: indexed collection makes distributed output identical to
	// serial regardless of which process executed each job.
	for i := range jobs {
		if got[i] == nil {
			t.Fatalf("job %d: nil result", i)
		}
		if got[i].IPC != serial[i].IPC || got[i].Cycles != serial[i].Cycles || got[i].Instrs != serial[i].Instrs {
			t.Errorf("job %d: distributed %+v != serial %+v", i, got[i], serial[i])
		}
	}

	perWorker := sched.WorkerJobs()
	sched.Close()
	localDone.Wait()
	for i := 0; i < 2; i++ {
		if err := <-workerErrs; err != nil {
			t.Errorf("worker %d exited with %v, want clean close", i, err)
		}
	}

	remoteJobs := int64(0)
	for name, n := range perWorker {
		if name != "local" {
			remoteJobs += n
		}
	}
	if remoteJobs == 0 {
		t.Error("remote workers executed 0 jobs; the fleet did not participate")
	}
	t.Logf("job split: %v", perWorker)

	st := sched.Stats()
	if st.Completed != st.Submitted {
		t.Errorf("completed %d != submitted %d", st.Completed, st.Submitted)
	}
}
