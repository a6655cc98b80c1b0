// Command perfbench is the repository benchmark. It runs one workload
// in-process through the same entry points msreport and mssrv use, checks
// every output, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics of a traced run) as one JSON object on the last line of
// standard output.
//
// Usage (from the repository root):
//
//	python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 20 --trace 0
//
// Workloads: paper-grid (the full msreport -experiment all report),
// corpus (a 100-program generated corpus raced across six arms) and
// serve-mix (a closed loop of 2 HTTP clients against serve, grid and jobs).
// perfbench/README.md defines every metric and what it should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	_ "multiscalar/internal/policy" // register the policy zoo the corpus races
)

// setupRounds is how many rounds of set-ups serve-mix makes before its
// streams; paper-grid and corpus make one before each pass.
const setupRounds = 4

// moreSetup reports whether a run should set its workload up once more in
// the current round: at least 5 times, and while the round has taken under
// a quarter of a second, up to 50 times. setup_s is the median over all of
// a run's rounds.
func moreSetup(round []float64) bool {
	return len(round) < 5 || (sum(round) < 0.25 && len(round) < 50)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload gets from the command line.
type env struct {
	seed    int64
	seconds time.Duration
	trace   bool
	root    string // repository checkout the benchmark runs from
	work    string // scratch directory inside the checkout
	nproc   int
	notes   []string // human-readable lines printed before the result
}

func (e *env) note(format string, args ...any) {
	e.notes = append(e.notes, fmt.Sprintf(format, args...))
}

var runners = map[string]func(context.Context, *env) (*result, error){
	"paper-grid": runPaperGrid,
	"corpus":     runCorpus,
	"serve-mix":  runServeMix,
}

func main() {
	var (
		workload = flag.String("workload", "", "paper-grid, corpus or serve-mix")
		seed     = flag.Int64("seed", 1, "workload seed: picks the corpus programs and the serve-mix point draw and order")
		seconds  = flag.Float64("seconds", 10, "measure for at least this long (whole passes; at least one)")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		work     = flag.String("work", ".bench_build/work", "scratch directory for temp files, relative to the checkout")
	)
	flag.Parse()
	run, ok := runners[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want --workload paper-grid|corpus|serve-mix, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	e := &env{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		root:    root,
		work:    *work,
		nproc:   runtime.NumCPU(),
	}
	if !filepath.IsAbs(e.work) {
		e.work = filepath.Join(root, e.work)
	}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		fatal(err)
	}
	res, err := run(context.Background(), e)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("# workload=%s seed=%d trace=%d nproc=%d go=%s %s/%s\n",
		*workload, e.seed, *trace, e.nproc, runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Println("# the timing model has no hardware reference in the repository: it is unvalidated and no error figure is given")
	for _, n := range e.notes {
		fmt.Println("#", n)
	}
	failFrac := float64(res.Failed) / float64(res.Attempted)
	fmt.Printf("%-32s %.6g %s\n", "fail_frac", failFrac, "1")
	names := make([]string, 0, len(res.Metrics))
	for n, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fatal(fmt.Errorf("metric %s is not finite", n))
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(blob))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
