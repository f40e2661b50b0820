package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"

	"cbs/internal/soa"
)

// metricDef names one metric and its unit; BENCHMARK.json lists the same
// names (pinned by TestBenchmarkFileMatchesTables).
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user sees, measured untraced on every
// workload. A "job" is the workload's unit request: one sweep energy
// (al-sweep), one solve (al-dd-solve), one cbsd job from POST to its
// terminal SSE event (cbsd-tb-mix).
var endToEnd = []metricDef{
	{"setup_s", "s"},     // NewModel + FermiLevel, or cbsd start until /healthz answers
	{"job_ms_p50", "ms"}, // median job latency
	{"jobs_per_s", "1/s"},
	{"peak_rss_mb", "MB"}, // VmHWM of the process running the workload after a fixed amount of work
}

// perLayer are the traced run's metrics. Times are medians per call,
// counts are per round (one round is the seed's fixed operation list), so
// at a fixed seed the counts repeat. A layer the workload does not cross
// reads 0.
var perLayer = []metricDef{
	{"hamiltonian.build_s", "s"},
	{"bandstructure.fermi_s", "s"},
	{"core.solve_linear_s", "s"},
	{"core.extract_s", "s"},
	{"linsolve.iterations", "count"},
	{"qep.matvecs", "count"},
	{"qep.apply_block_us", "us"},
	{"hamiltonian.apply_gflops", "GFLOP/s"},
	{"linsolve.vector_s_est", "s"},
	{"core.ladder_restarts", "count"},
	{"core.ladder_fallbacks", "count"},
	{"core.dropped", "count"},
	{"dist.comm_bytes", "B"},
	{"dist.apply_once_ms", "ms"},
	{"sweep.self_s", "s"},
	{"sweep.attempts", "count"},
	{"journal.bytes", "B"},
	{"http.submit_ms_p50", "ms"},
	{"sse.deliver_ms_p50", "ms"},
	{"jobs.queue_wait_ms_p50", "ms"},
	{"jobs.queue_wait_ms_p99", "ms"},
	{"jobs.run_ms_p50.transport", "ms"},
	{"jobs.run_ms_p50.solve", "ms"},
	{"jobs.run_ms_p50.sweep", "ms"},
	{"rescache.hits", "count"},
	{"rescache.misses", "count"},
	{"rescache.deduped", "count"},
	{"rescache.hit_ratio", "ratio"},
	{"jobs.log_bytes", "B"},
	{"negf.self_ms", "ms"},
	{"go.alloc_mb", "MB"},
	{"go.gc_pause_ms", "ms"},
	// Workload-level figures that exist on one workload only, so they
	// cannot be end-to-end metrics every workload reports.
	{"sweep_s", "s"},
	{"solve_s", "s"},
	{"job_ms_p99", "ms"},
	{"transport_job_ms_p50", "ms"},
	{"cached_job_ms_p50", "ms"},
	{"sweep_job_ms_p50", "ms"},
}

// opTally counts attempted and failed operations by kind.
type opTally struct {
	kinds []string
	att   map[string]int
	fail  map[string]int
	notes map[string]string
}

func newOpTally() *opTally {
	return &opTally{att: map[string]int{}, fail: map[string]int{}, notes: map[string]string{}}
}

func (t *opTally) add(kind string, attempted, failed int) {
	if _, ok := t.att[kind]; !ok {
		t.kinds = append(t.kinds, kind)
	}
	t.att[kind] += attempted
	t.fail[kind] += failed
}

// note attaches a free-form count to a kind's line (Degraded energies,
// canceled jobs, 429 rejections).
func (t *opTally) note(kind, s string) { t.notes[kind] = s }

func (t *opTally) attempted() int {
	n := 0
	for _, v := range t.att {
		n += v
	}
	return n
}

func (t *opTally) failed() int {
	n := 0
	for _, v := range t.fail {
		n += v
	}
	return n
}

func (t *opTally) lines() []string {
	var out []string
	for _, k := range t.kinds {
		s := fmt.Sprintf("%s attempted=%d failed=%d", k, t.att[k], t.fail[k])
		if n := t.notes[k]; n != "" {
			s += " " + n
		}
		out = append(out, s)
	}
	return out
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// peakRSSMB reads VmHWM, the resident-set high-water mark, of a process
// ("self" or a pid) in MB.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// hostFacts are printed by every run so figures carry their hardware.
func hostFacts() []string {
	commit := "unknown (not built from a git checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(l, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
				break
			}
		}
	}
	return []string{
		fmt.Sprintf("nproc=%d gomaxprocs=%d avx2=%v", runtime.NumCPU(), runtime.GOMAXPROCS(0), soa.HasAVX2),
		fmt.Sprintf("go=%s goos=%s goarch=%s", runtime.Version(), runtime.GOOS, runtime.GOARCH),
		"cpu=" + cpu,
		"commit=" + commit,
	}
}
