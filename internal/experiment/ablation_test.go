package experiment

import (
	"context"
	"errors"
	"testing"
	"time"

	"multiscalar/internal/core"
	"multiscalar/internal/grid"
	"multiscalar/internal/sim"
)

// TestAblationGreedyHonorsContext: AblationGreedy's simulations ride the
// runner's context like every other ablation's. With the engine's only
// worker slot held by a stalled simulation, cancelling the runner must
// return context.Canceled at once instead of waiting for the slot.
func TestAblationGreedyHonorsContext(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	restore := grid.SetSimForTesting(func(part *core.Partition, cfg sim.Config) (*sim.Result, error) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
		return &sim.Result{IPC: 1}, nil
	})
	defer restore()
	eng := grid.New(grid.Options{Workers: 1})
	blocker := make(chan error, 1)
	go func() {
		_, err := eng.Run(grid.Job{Workload: "fpppp", Config: sim.DefaultConfig(4)})
		blocker <- err
	}()
	defer func() {
		close(release)
		if err := <-blocker; err != nil {
			t.Errorf("blocking job: %v", err)
		}
	}()
	<-entered // the blocker now holds the only worker slot

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := AblationGreedy(NewRunnerOn(eng).WithContext(ctx), []string{"compress"})
		done <- err
	}()
	// Cancel only once both ablation jobs are queued behind the blocker: a
	// context that is already done never reaches the jobs at all.
	deadline := time.Now().Add(5 * time.Second)
	for eng.Stats().Jobs < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("ablation jobs never reached the engine (stats %+v)", eng.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("AblationGreedy = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AblationGreedy ignored its runner's cancellation while the worker slot was held")
	}
}
