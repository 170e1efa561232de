// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload against the code paths the leishen daemon runs,
// checks the outputs, and prints one JSON result line:
//
//	perfbench -workload scan -seed 7 -seconds 10 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics of
// BENCHMARK.json; with -trace 1 it carries the per-layer metrics of the
// traced run. A failed output check exits non-zero without a result.
// See README.md for the workloads and the layer-to-metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// corpusScale is the corpus size (world.Config.ScalePct) every workload
// generates from its seed: about 6,000 flash-loan transactions in about
// 120 blocks.
const corpusScale = 2

// setupRepeats is how many times a run builds its set-up; setup_s is
// the median, and the last build is the one measured.
const setupRepeats = 5

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    int    // corpus scale percent: corpusScale, smaller only in the self-test
	dir      string // scratch space for archives and span files
	nproc    int
}

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload's timed window produced.
type result struct {
	attempted int
	failed    int
	metrics   map[string]metric
	// info lists extra figures for the informational line printed
	// before the result: the run's parameters and per-route detail.
	info []string
}

func (r *result) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) note(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// workload is one traffic mix: setup builds its inputs (timed for
// setup_s), run measures the end-to-end metrics, traced measures the
// per-layer ones.
type workload interface {
	run(cfg config) (*result, error)
	traced(cfg config) (*result, error)
	close() error
}

var workloads = map[string]func(cfg config) (workload, error){
	"scan":           setupScan,
	"follow-catchup": setupCatchup,
	"query":          setupQuery,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	var (
		cfg       config
		traceFlag int
	)
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: scan, follow-catchup or query")
	fs.Int64Var(&cfg.seed, "seed", 7, "corpus seed; the same seed gives the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed window in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fs.StringVar(&cfg.dir, "dir", ".bench_build", "scratch directory for archives and span files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", traceFlag)
	}
	cfg.trace = traceFlag == 1
	cfg.scale = corpusScale
	return execute(cfg, stdout)
}

// execute runs one workload as cfg describes and prints the result.
func execute(cfg config, stdout io.Writer) error {
	cfg.nproc = runtime.NumCPU()
	setup, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	runDir, err := filepath.Abs(filepath.Join(cfg.dir, fmt.Sprintf("run-%s-%d", cfg.workload, os.Getpid())))
	if err != nil {
		return err
	}
	cfg.dir = runDir
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.dir)

	var (
		w      workload
		setups []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if w != nil {
			if err := w.close(); err != nil {
				return err
			}
			w = nil
			runtime.GC()
		}
		t0 := time.Now()
		if w, err = setup(cfg); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	runtime.GC()

	var res *result
	if cfg.trace {
		res, err = w.traced(cfg)
	} else {
		res, err = w.run(cfg)
	}
	if cerr := w.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if res.failed > 0 {
		return fmt.Errorf("%d of %d operations failed", res.failed, res.attempted)
	}
	if !cfg.trace {
		res.set("setup_s", median(setups), "s")
	}

	traceFlag := 0
	if cfg.trace {
		traceFlag = 1
	}
	fmt.Fprintf(stdout, "# workload=%s seed=%d seconds=%g trace=%d nproc=%d gomaxprocs=%d %s\n",
		cfg.workload, cfg.seed, cfg.seconds, traceFlag, cfg.nproc, runtime.GOMAXPROCS(0), joinInfo(res.info))
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{true, res.attempted, res.failed, res.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(out))
	return err
}

func joinInfo(info []string) string {
	sort.Strings(info)
	s := ""
	for i, x := range info {
		if i > 0 {
			s += " "
		}
		s += x
	}
	return s
}
