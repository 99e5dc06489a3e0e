// Command perfbench is the repository's end-to-end benchmark. It drives
// the visualization pipeline and the frame server through their public
// APIs from one process, times every layer from outside by wrapping the
// calls into it, checks every output, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload animate --seed 1 --seconds 20 --trace 0
//
// README.md describes the workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// runConfig is one run's command line.
type runConfig struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
}

// outcome is one run's result: operations attempted and failed, whether
// every output check passed, and the metrics of the run's mode.
type outcome struct {
	attempted, failed int
	correct           bool
	errs              []error
	e2e, layer        map[string]float64
	samples           int  // latency samples behind the end-to-end tail
	tail              bool // the tail percentile has ten samples beyond it
	notes             []string
}

// fail records n failed operations and the check that failed them.
func (o *outcome) fail(n int, err error) {
	o.failed += n
	o.correct = false
	o.errs = append(o.errs, err)
}

// metricDef names a metric and its unit, as BENCHMARK.json lists them.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run prints, for every
// workload; README.md says what each means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"frames_per_s", "frames/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the metrics every traced run prints. A metric of a layer
// a workload does not reach reads 0 on that workload.
var perLayer = []metricDef{
	{"render.step_ms", "ms"},
	{"render.imbalance", "ratio"},
	{"compositor.step_ms", "ms"},
	{"core.fetch_ms", "ms"},
	{"core.fetch_self_ms", "ms"},
	{"core.preprocess_ms", "ms"},
	{"core.lic_ms", "ms"},
	{"core.payload_ms", "ms"},
	{"core.assemble_ms", "ms"},
	{"core.credit_wait_ms", "ms"},
	{"core.renderer_wait_ms", "ms"},
	{"pfs.read_calls", "count"},
	{"pfs.read_mb", "MB"},
	{"pfs.read_ms", "ms"},
	{"mpi.msgs_per_frame", "count"},
	{"mpi.mb_per_frame", "MB"},
	{"mpi.tcp_overhead_ms", "ms"},
	{"runtime.alloc_kb_per_frame", "KB"},
	{"runtime.gc_cycles", "count"},
	{"serve.hit_handler_ms", "ms"},
	{"serve.miss_handler_ms", "ms"},
	{"serve.newview_handler_ms", "ms"},
	{"serve.png_handler_ms", "ms"},
	{"serve.stream_handler_ms", "ms"},
	{"http.client_overhead_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.cache_evictions", "count"},
	{"serve.renders_per_key", "ratio"},
	{"serve.cold_sessions", "count"},
	{"serve.queued_p99", "count"},
	{"serve.alloc_kb_per_req", "KB"},
	{"loadgen.late_p99_ms", "ms"},
	{"hit_p50_ms", "ms"},
	{"hit_p95_ms", "ms"},
	{"miss_p50_ms", "ms"},
	{"miss_p90_ms", "ms"},
	{"newview_p50_ms", "ms"},
	{"png_p50_ms", "ms"},
	{"stream_p50_ms", "ms"},
	{"capacity_rps", "req/s"},
	{"trace.frames_per_s", "frames/s"},
	{"trace.latency_p50_ms", "ms"},
	{"trace.spans_per_frame", "count"},
}

func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"animate":     func(c runConfig) (*outcome, error) { return runBatch(c, animateSpec) },
	"animate-tcp": func(c runConfig) (*outcome, error) { return runBatch(c, animateTCPSpec) },
	"serve-mix":   runServeMix,
}

// workloadOrder is the order "all" and the steadiness mode run them in.
var workloadOrder = []string{"animate", "animate-tcp", "serve-mix"}

func main() {
	workload := flag.String("workload", "", "animate, animate-tcp, serve-mix, or all")
	seed := flag.Int64("seed", 1, "seed of the run's inputs")
	seconds := flag.Int("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	steady := flag.Int("steady", 0, "steadiness mode: runs per workload and set")
	flag.Parse()
	if *steady > 0 {
		if err := runSteadiness(*steady, *seconds, flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *workload == "all" {
		if err := runAll(*seed, *seconds, *trace); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload animate|animate-tcp|serve-mix|all --seed N --seconds N --trace 0|1\n")
		os.Exit(2)
	}
	// A run that hangs (a lost message, a stuck connection) must still end,
	// in bounded time and without a result.
	watchdog := time.AfterFunc(time.Duration(*seconds)*time.Second+150*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run did not finish in time")
		os.Exit(3)
	})
	cfg := runConfig{workload: *workload, seed: *seed, duration: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	start := time.Now()
	out, err := run(cfg)
	watchdog.Stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	report(os.Stderr, cfg, out, time.Since(start))
	line, err := resultLine(cfg, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

// resultLine renders the JSON object a benchmark runner reads: the run's
// operation counts, its correctness, and every metric of its mode with
// its unit.
func resultLine(cfg runConfig, out *outcome) (string, error) {
	defs, vals := endToEnd, out.e2e
	if cfg.trace {
		defs, vals = perLayer, out.layer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s was not measured (%v)", d.name, v)
		}
		ms[d.name] = metric{v, d.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.correct, out.attempted, out.failed, ms})
	return string(b), err
}

// report prints the run in human form on standard error: failures, the
// notes a workload adds, and every metric measured.
func report(w *os.File, cfg runConfig, out *outcome, took time.Duration) {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%v trace=%v GOMAXPROCS=%d: %d attempted, %d failed, correct=%v (%.1fs)\n",
		cfg.workload, cfg.seed, cfg.duration.Seconds(), cfg.trace, runtime.GOMAXPROCS(0), out.attempted, out.failed, out.correct, took.Seconds())
	for _, err := range out.errs {
		fmt.Fprintln(w, "  FAILED:", err)
	}
	for _, n := range out.notes {
		fmt.Fprintln(w, " ", n)
	}
	show := func(defs []metricDef, vals map[string]float64) {
		for _, d := range defs {
			if v, ok := vals[d.name]; ok {
				fmt.Fprintf(w, "  %-28s %12.4f %s\n", d.name, v, d.unit)
			}
		}
	}
	show(endToEnd, out.e2e)
	show(perLayer, out.layer)
	if !out.tail {
		fmt.Fprintf(w, "  note: latency_p90_ms rests on %d samples, fewer than ten beyond it\n", out.samples)
	}
}
