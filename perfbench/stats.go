package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// pct returns the nearest-rank p-quantile (0 < p <= 1) of xs, or 0 for no
// samples. With n samples, the p-quantile has n-ceil(p*n) samples above it;
// the benchmark's counts are chosen so every reported tail keeps at least
// ten (see supported).
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// worstMean returns the mean of the samples beyond the p-quantile of xs
// (the slowest 1% for p = .99), or 0 for no samples. It summarises the same
// tail as pct(xs, p), but averages it: when the tail is a small group of
// stalls, the p-quantile is a single sample inside that group and moves
// with how many of them a run happens to catch.
func worstMean(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := max(1, len(s)-int(math.Ceil(p*float64(len(s)))))
	return sum(s[len(s)-k:]) / float64(k)
}

// supported reports whether the p-quantile of n samples has at least ten
// samples beyond it, the rule every reported tail follows.
func supported(n int, p float64) bool {
	return n-int(math.Ceil(p*float64(n))) >= 10
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// usage is the process-wide cost of one measured interval, read from
// runtime/metrics (no stop-the-world) at its two ends, plus the peak live
// heap sampled while it ran.
type usage struct {
	wall       time.Duration
	allocBytes uint64
	allocObjs  uint64
	gcCycles   uint64
	gcCPU      float64 // seconds of GC CPU
	totalCPU   float64 // seconds of all CPU the runtime accounts
	peakHeap   uint64  // bytes of heap objects, sampled every heapEvery
}

const heapEvery = 2 * time.Millisecond

var usageNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readUsage() [5]float64 {
	samples := make([]metrics.Sample, len(usageNames))
	for i, n := range usageNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	var out [5]float64
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

func heapObjects() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// measure runs fn and reports its wall time and runtime cost. It first
// collects and returns free memory to the operating system, so every
// interval starts from the same small heap and pays for growing it, as a
// fresh msreport or mssrv process does; otherwise a later pass would reuse
// the pages an earlier one faulted in.
func measure(fn func() error) (usage, error) {
	debug.FreeOSMemory()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var peak uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(heapEvery)
		defer tick.Stop()
		for {
			if h := heapObjects(); h > peak {
				peak = h
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	before := readUsage()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0)
	after := readUsage()
	close(stop)
	wg.Wait()
	if h := heapObjects(); h > peak {
		peak = h
	}
	return usage{
		wall:       wall,
		allocBytes: uint64(after[0] - before[0]),
		allocObjs:  uint64(after[1] - before[1]),
		gcCycles:   uint64(after[2] - before[2]),
		gcCPU:      after[3] - before[3],
		totalCPU:   after[4] - before[4],
		peakHeap:   peak,
	}, err
}

// allocsOf runs fn alone and returns the exact bytes and objects it
// allocated. ReadMemStats stops the world, so this is for quiet,
// single-goroutine sections only.
func allocsOf(fn func()) (bytes, objs uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc, b.Mallocs - a.Mallocs
}
