// Command experiments reproduces the paper's tables and figures.
//
// Usage:
//
//	experiments -run all                       # every table and figure
//	experiments -run fig8 -scale full          # one experiment at full scale
//	experiments -run tableII -bench 505.mcf_r,541.leela_r
//
// Scale "full" runs the complete suite at the fidelity used for
// EXPERIMENTS.md (minutes); "medium" (default) is a few times faster;
// "small" is for quick smoke runs.
//
// The suite pipeline is parallel: -workers (default: the machine's CPU
// count) bounds the fan-out of per-benchmark analyses, figure loops,
// clustering and replay. Every reported number is identical for any worker
// count — parallelism only changes wall-clock time.
//
// Persistence: -cache-dir DIR (default: env SPECSIM_CACHE) keeps the
// expensive pipeline artifacts — BBV profiles, SimPoint clusterings,
// whole-run replay profiles — in a crash-safe on-disk store, so repeated and
// interrupted runs reuse completed stages instead of recomputing them;
// -no-cache forces the store off. Cached results are byte-identical to
// recomputation.
//
// Observability: -trace FILE writes a JSONL span tree of the whole run
// (analyze → profile/cluster → replay), -progress narrates live progress to
// stderr, and -metrics dumps the pipeline counters on exit. All three are
// off by default and cost nothing when disabled. Ctrl-C cancels the run
// deterministically — in-flight benchmarks finish their current slice, the
// process reports "interrupted" on stderr and exits with status 130
// (128+SIGINT), and a later run with the same -cache-dir resumes from the
// completed stages. Mistyped flag values (unknown -run, -scale, -bench or
// -selector) are usage errors and exit with status 2.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"time"

	"specsampling/internal/cli"
	"specsampling/internal/experiments"
	"specsampling/internal/obs"
	"specsampling/internal/selector"
	"specsampling/internal/store"
	"specsampling/internal/workload"
)

func main() {
	// The root context is minted here and nowhere else: SIGINT cancels it,
	// and every pipeline stage below sees the same cancellation.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		if !errors.Is(err, flag.ErrHelp) && !cli.Reported(err) {
			fmt.Fprintln(os.Stderr, "experiments:", err)
		}
		stop()
		os.Exit(cli.ExitCode(err))
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	id := fs.String("run", "all", "experiment id: "+strings.Join(experiments.IDs(), ", ")+" or all")
	scaleName := fs.String("scale", "medium", "workload scale: full, medium or small (env SPECSIM_SCALE overrides)")
	benches := fs.String("bench", "", "comma-separated benchmark subset (default: all 29)")
	workers := fs.Int("workers", runtime.NumCPU(),
		"worker goroutines for the suite pipeline: per-benchmark analyses, figure loops, "+
			"clustering and pinball replay all fan out across this budget "+
			"(results are identical for any value; <= 0 means GOMAXPROCS)")
	jsonPath := fs.String("json", "", "also write structured results as JSON to this file")
	sel := fs.String("selector", "",
		"region-selection backend (default simpoint); 'list' prints the registered backends and their knobs")
	repeats := fs.Int("repeats", 0,
		"shoot-out repeated-subsampling runs behind each confidence interval (default 5, min 2)")
	cacheFlags := store.BindFlags(fs)
	obsFlags := obs.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return cli.ParseError(err)
	}
	if *sel == "list" {
		selector.FprintList(os.Stdout)
		return nil
	}
	// Validate the value-carrying flags up front, so a typo is a usage
	// error (exit 2) with a pointer at the discovery command, not a runtime
	// failure from deep inside the pipeline.
	if _, err := selector.ByName(*sel); err != nil {
		return cli.SelectorHint("experiments", err)
	}
	if !experiments.Known(*id) {
		return cli.Usagef("unknown experiment %q (want one of %s or all)", *id, strings.Join(experiments.IDs(), ", "))
	}
	st, err := cacheFlags.Open()
	if err != nil {
		return err
	}
	shutdown, err := obsFlags.Activate(os.Stderr)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := shutdown(); cerr != nil {
			fmt.Fprintln(os.Stderr, "experiments:", cerr)
		}
	}()
	scale, err := workload.ScaleByName(*scaleName)
	if err != nil {
		return cli.Usagef("%v", err)
	}
	scale = workload.ScaleFromEnv(scale)

	var names []string
	if *benches != "" {
		for _, n := range strings.Split(*benches, ",") {
			if n = strings.TrimSpace(n); n != "" {
				if _, err := workload.ByName(n); err != nil {
					return cli.Usagef("%v (run 'specsim list' to see the suite)", err)
				}
				names = append(names, n)
			}
		}
	}
	runner, err := experiments.New(experiments.Options{
		Scale:           scale,
		Benchmarks:      names,
		Workers:         *workers,
		Out:             os.Stdout,
		Store:           st,
		Selector:        *sel,
		ShootoutRepeats: *repeats,
	})
	if err != nil {
		return err
	}
	fmt.Printf("reproducing %s: %s\n", *id, runner.Describe())
	start := time.Now()
	report := experiments.NewReport()
	if err := runner.RunRecorded(ctx, *id, report); err != nil {
		// A SIGINT cancellation gets a resumability-aware error (main turns
		// it into exit status 130).
		if !errors.Is(err, context.Canceled) {
			return err
		}
		if st != nil {
			return fmt.Errorf("interrupted by SIGINT; completed stages are cached in %s — rerun with the same -cache-dir to resume: %w", st.Dir(), err)
		}
		return fmt.Errorf("interrupted by SIGINT (rerun with -cache-dir to make interrupted runs resumable): %w", err)
	}
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			return err
		}
		var benchNames []string
		for _, s := range runner.Benchmarks() {
			benchNames = append(benchNames, s.Name)
		}
		if err := report.WriteJSON(f, scale.Name, benchNames); err != nil {
			_ = f.Close() // the encode error is the one worth reporting
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d experiments)\n", *jsonPath, report.Len())
	}
	fmt.Printf("\ncompleted in %s\n", time.Since(start).Round(time.Millisecond))
	return nil
}
