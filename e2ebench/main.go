// Command e2ebench is the repository's end-to-end benchmark. One command
// runs one named workload and prints every metric by name with its unit,
// then, as its last line, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads (see METRICS.md for what each is built to stress):
//
//	cold-suite   all 29 benchmarks at small scale through the whole
//	             pipeline into an empty store
//	remeasure    eight medium-scale benchmarks re-simulated from stored
//	             profiles and selections
//	daemon-open  an in-process specsimd server under an open-loop request
//	             mix, then a closed-loop saturation phase
//	all          each of the above in its own child process
//
// With -trace 0 the JSON carries the end-to-end metrics, measured with no
// timers around layer calls. With -trace 1 it carries the per-layer metrics
// of a separate traced pass. Every output check that fails is counted in
// "failed" and makes the command exit 1.
//
// Usage (from the repository root):
//
//	bash e2ebench/run.sh --workload cold-suite --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of the system sees, in the forms that stay
// steady on a shared host. Every workload reports every one of these (see
// METRICS.md for each workload's reading of them). Host time is process
// CPU time, which the hypervisor's steal does not inflate.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"max_rss_mb", "MB"},
	{"cpi_err_pct", "%"},
	{"l3_miss_err_pp", "pp"},
	{"sampled_instr_pct", "%"},
}

// perLayer are the traced run's layer metrics. A layer a workload does not
// exercise reads 0. wall_s, the job latencies, capacity_jobs_s and
// api_p99_ms are end-to-end wall-clock figures measured by the untraced
// passes. They are listed here, ungated, because wall time on a 2-CPU
// virtual machine moves with the host's steal: across runs of the same
// code their quartile spread reached 0.18 to 0.45 of the median, wider than
// any bound a gated metric may have.
var perLayer = []metricDef{
	{"wall_s", "s"},
	{"job_p50_ms", "ms"},
	{"job_p90_ms", "ms"},
	{"capacity_jobs_s", "1/s"},
	{"selector.select_s", "s"},
	{"selector.points", "count"},
	{"kmeans.lloyd_iters", "count"},
	{"kmeans.bound_skip_ratio", "ratio"},
	{"workload.build_s", "s"},
	{"simpoint.profile_s", "s"},
	{"simpoint.slices", "count"},
	{"core.whole_s", "s"},
	{"core.whole_minstr_per_s", "Minstr/s"},
	{"core.sampled_s", "s"},
	{"core.sampled_minstr_per_s", "Minstr/s"},
	{"core.cut_s", "s"},
	{"pinball.replays", "count"},
	{"store.get_s", "s"},
	{"store.gets", "count"},
	{"store.hit_ratio", "ratio"},
	{"store.put_s", "s"},
	{"store.puts", "count"},
	{"store.put_bytes", "bytes"},
	{"serve.submit_p99_ms", "ms"},
	{"serve.status_p99_ms", "ms"},
	{"serve.result_p99_ms", "ms"},
	{"telemetry.scrape_p99_ms", "ms"},
	{"api_p99_ms", "ms"},
	{"serve.queue_wait_p90_ms", "ms"},
	{"serve.run_p50_ms", "ms"},
	{"serve.run_p90_ms", "ms"},
	{"serve.dedup_ratio", "ratio"},
	{"serve.rejected", "count"},
	{"sched.queue_depth_max", "count"},
	{"runtime.heap_mb", "MB"},
	{"job.store_get_s", "s"},
	{"job.replay_s", "s"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.sent", "count"},
	{"trace.coverage", "ratio"},
	{"trace.overhead", "ratio"},
	{"failed_frac", "ratio"},
}

// options are one invocation's settings.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	workdir string // scratch stores live in a fresh directory under here
	workers int
	size    sizing
}

// outcome is what a workload measured. The workload fills e2e always and
// layer only when traced; ops and fails count operations attempted and
// failed (a failed output check is a failed operation).
type outcome struct {
	e2e   map[string]float64
	layer map[string]float64
	ops   int
	fails []string
	note  string // what was measured, with its sample counts
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// check records one operation whose success is ok; a failure is kept with
// its message.
func (o *outcome) check(ok bool, format string, args ...interface{}) {
	o.ops++
	if !ok {
		o.fails = append(o.fails, fmt.Sprintf(format, args...))
	}
}

// workloads maps each name to its runner.
var workloads = map[string]func(ctx context.Context, opt options) (*outcome, error){
	"cold-suite":  coldSuite,
	"remeasure":   remeasure,
	"daemon-open": daemonOpen,
}

var workloadOrder = []string{"cold-suite", "remeasure", "daemon-open"}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadOrder, ", ")+" or all")
	seed := fs.Uint64("seed", 1, "input seed (selection seed, or the load schedule's seed)")
	seconds := fs.Float64("seconds", 24, "how long one run measures")
	trace := fs.Int("trace", 0, "1 = report per-layer metrics from a separate traced pass")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seed == 0 {
		// Config.Seed 0 means "the default seed"; keep seeds distinct.
		*seed = math.MaxUint64
	}
	if *name == "all" {
		return runAll(ctx, args, stdout, stderr)
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: want -workload one of %s or all, -seconds > 0 and -trace 0 or 1\n",
			strings.Join(workloadOrder, ", "))
		return 2
	}
	// Scratch stores live beside the build output, inside the checkout.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	opt := options{
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace == 1,
		workdir: dir,
		workers: runtime.NumCPU(),
		size:    fullSize,
	}
	out, err := wl(ctx, opt)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", *name, err)
		return 1
	}
	out.e2e["max_rss_mb"] = peakRSSMB()
	return report(stdout, stderr, *name, opt.trace, out)
}

// report prints the metric table and the closing JSON line, and returns the
// exit code: 1 when any operation failed.
func report(stdout, stderr io.Writer, name string, traced bool, out *outcome) int {
	for _, msg := range out.fails {
		fmt.Fprintln(stderr, "e2ebench: check failed:", msg)
	}
	failed := len(out.fails)
	attempted := out.ops
	if attempted < 1 {
		attempted = 1
	}
	out.layer["failed_frac"] = float64(failed) / float64(attempted)

	defs, vals := endToEnd, out.e2e
	if traced {
		defs, vals = perLayer, out.layer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	fmt.Fprintf(stdout, "%s: %s (%d operations, %d failed)\n", name, out.note, attempted, failed)
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			v = out.e2e[d.name] // measured by the untraced passes
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[d.name] = value{v, d.unit}
		fmt.Fprintf(stdout, "  %-28s %14.6g %s\n", d.name, v, d.unit)
	}
	blob, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0, attempted, failed, metrics})
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", blob)
	if failed > 0 {
		return 1
	}
	return 0
}

// runAll runs every workload in its own child process, so each one's peak
// memory is its own, and passes the children's output through.
func runAll(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	code := 0
	for _, w := range workloadOrder {
		cmd := exec.CommandContext(ctx, self, append(withoutWorkload(args), "-workload", w)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "e2ebench: %s: %v\n", w, err)
			code = 1
		}
	}
	return code
}

// withoutWorkload drops the -workload flag (either spelling, either form)
// from args.
func withoutWorkload(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := strings.TrimLeft(args[i], "-")
		switch {
		case a == "workload":
			i++ // skip its value
		case strings.HasPrefix(a, "workload="):
		default:
			out = append(out, args[i])
		}
	}
	return out
}

// resetPeakRSS returns freed memory to the OS and restarts the kernel's
// peak-RSS count, so that peakRSSMB covers the timed phase and not the
// set-up before it. Where /proc/self/clear_refs is not writable the peak
// keeps covering the whole process.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB since the
// last resetPeakRSS. Each invocation runs one workload, so the peak is
// that workload's alone.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// equalBytes reports whether two renderings match, naming the first
// differing offset for the failure message.
func equalBytes(a, b []byte) (bool, string) {
	if bytes.Equal(a, b) {
		return true, ""
	}
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return false, fmt.Sprintf("lengths %d/%d, first difference at byte %d", len(a), len(b), i)
}
