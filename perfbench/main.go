// Command perfbench is the whole-request benchmark of the cbs repository:
// one command that runs a workload end to end, checks that the program's
// outputs are correct, and prints every metric by name with its unit.
//
//	bash perfbench/run.sh --workload al-sweep --seed 1 --seconds 20 --trace 0
//
// run.sh builds this harness and cmd/cbsd from source into .bench_build and
// execs the harness from the root of the checkout. The workloads are
//
//   - al-sweep: Al(100) below the dense Fermi-level cutoff; model setup plus
//     checkpointed sweep rounds over closely spaced energies around E_F;
//   - al-dd-solve: Al(100) above the cutoff; independent SolveCBSContext
//     calls at scattered energies on two z-slab domains (Ndm = 2);
//   - cbsd-tb-mix: a real cmd/cbsd process serving a tight-binding slab to
//     two closed-loop clients submitting transport, solve and sweep jobs.
//
// With --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics and the spans recorded around
// every layer call are written as JSON under .bench_build/trace. The lines
// before it report host facts and the operations attempted and failed by
// kind. See README.md for the metric map and reference figures.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	cbsd     string // path of the cmd/cbsd binary (cbsd-tb-mix)
	dir      string // scratch directory inside the checkout
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloads maps each workload name to the function that runs it, which
// returns the measured values by metric name (end-to-end and per-layer
// alike), the operation tallies and the outcome of its output checks.
var workloads = map[string]func(ctx context.Context, cfg runConfig, tr *tracer) (*outcome, error){
	"al-sweep":    runALSweep,
	"al-dd-solve": runALDDSolve,
	"cbsd-tb-mix": runCBSDMix,
}

// outcome is what a workload run hands back.
type outcome struct {
	values map[string]float64
	ops    *opTally
	checks []error // failed output checks; empty when every check passed
	facts  []string
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: al-sweep | al-dd-solve | cbsd-tb-mix")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "measurement window (s); whole rounds start until it closes")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics and a span trace")
	cbsd := fs.String("cbsd", ".bench_build/cbsd", "cmd/cbsd binary for cbsd-tb-mix")
	dir := fs.String("dir", ".bench_build", "scratch directory for journals, job logs and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runWorkload, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %s, --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	cfg := runConfig{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		cbsd: *cbsd, dir: *dir,
	}
	runDir, err := os.MkdirTemp(cfg.dir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(runDir)
	cfg.dir = runDir

	tr := newTracer(cfg.trace)
	// SIGINT/SIGTERM cancel the run: solves stop, the cbsd server is
	// stopped and waited for, and no result is printed.
	//cbs:ctxescape the benchmark's main is the root of every context it passes to the program
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	for _, f := range hostFacts() {
		fmt.Println("host:", f)
	}
	out, err := runWorkload(ctx, cfg, tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	for _, f := range out.facts {
		fmt.Println("workload:", f)
	}
	for _, line := range out.ops.lines() {
		fmt.Println("ops:", line)
	}
	for _, e := range out.checks {
		fmt.Println("check FAILED:", e)
	}
	if cfg.trace {
		path := filepath.Join(*dir, "trace", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
			return 1
		}
		fmt.Println("trace:", path)
	}
	res, err := buildResult(out, cfg.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printReport(out.values, cfg.trace)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// buildResult selects the metric set of the mode: every end-to-end metric
// untraced, every per-layer metric traced. A layer the workload does not
// cross reads 0.
func buildResult(out *outcome, traced bool) (*result, error) {
	set := endToEnd
	if traced {
		set = perLayer
	}
	res := &result{
		Correct:   len(out.checks) == 0,
		Attempted: out.ops.attempted(),
		Failed:    out.ops.failed(),
		Metrics:   make(map[string]metric, len(set)),
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	for _, m := range set {
		v := out.values[m.name]
		if math.IsNaN(v) {
			v = 0 // nothing was measured: no call crossed the layer
		}
		if !traced && !(v > 0) {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	return res, nil
}

// printReport prints the measured values outside the selected set too, so
// an untraced run still shows the workload's own figures (sweep_s,
// job_ms_p99, the per-kind medians) by name and unit.
func printReport(values map[string]float64, traced bool) {
	set := perLayer
	if traced {
		set = endToEnd
	}
	for _, m := range set {
		if v, ok := values[m.name]; ok && v != 0 && !math.IsNaN(v) {
			fmt.Printf("also: %s = %.6g %s\n", m.name, v, m.unit)
		}
	}
}
