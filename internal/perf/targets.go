package perf

// Target is one benchmark set cmd/specbench knows how to run — the single
// source of truth for which benchmarks exist. The Makefile's benchsmoke and
// benchdiff both route through this table, so adding a benchmark here is
// all it takes for the smoke pass and (if Record is set) the perf gate to
// pick it up.
type Target struct {
	// Name labels the set in specbench output.
	Name string
	// Pkg is the package pattern to run (relative to the repository root).
	Pkg string
	// Pattern is the -bench regexp.
	Pattern string
	// Record marks sets whose numbers go into BENCH_*.json snapshots.
	// Smoke-only sets (Record false) are run once to catch bit-rot but are
	// too small or too incidental to gate on.
	Record bool
	// Benchtime overrides the specbench -benchtime flag for this set.
	// Fast benchmarks need a duration ("100ms") so the sample is large
	// enough to be stable; an iteration count ("2x") only suits sets whose
	// every benchmark runs long enough to self-average.
	Benchtime string
}

// Targets returns the benchmark sets in run order.
func Targets() []Target {
	return []Target{
		// The paper-facing macro benchmarks: the analysis kernels
		// (BenchmarkKMeansRun, BenchmarkProfile, BenchmarkSuiteAnalyze) and
		// every Table/Fig reproduction bench. These are the perf
		// trajectory. The set spans microseconds (the table formatters) to
		// seconds (the full-suite figures), so it uses a duration benchtime:
		// the µs-scale benches get thousands of iterations (an iteration
		// count like "2x" leaves them at scheduler-noise mercy) while the
		// seconds-scale ones still complete a full iteration.
		{
			Name:      "paper",
			Pkg:       ".",
			Pattern:   "^(BenchmarkKMeansRun|BenchmarkProfile|BenchmarkSuiteAnalyze|BenchmarkTable|BenchmarkFig)",
			Record:    true,
			Benchtime: "300ms",
		},
		// Everything else at the repository root (ablation benches):
		// smoke-only.
		{
			Name:    "root-other",
			Pkg:     ".",
			Pattern: "^BenchmarkAblation",
			Record:  false,
		},
		// The region-selection backends (internal/selector): the stratified
		// and ranked-set Select kernels sit on the clustering stage's hot
		// path for every shoot-out repeat, so their numbers join the
		// recorded baseline.
		{
			Name:    "selector",
			Pkg:     "./internal/selector",
			Pattern: "^Benchmark(Stratified|RankedSet)Select$",
			Record:  true,
		},
		// The cache-model kernel under a real program's address stream:
		// every whole-run and pinball replay through allcache or the timing
		// core pays it. One op replays ~410k recorded events, so ten
		// iterations self-average.
		{
			Name:      "cache",
			Pkg:       "./internal/cache",
			Pattern:   "^BenchmarkHierarchyReplay$",
			Record:    true,
			Benchtime: "10x",
		},
		// The telemetry hot paths: bucketed-histogram Observe is on every
		// instrumented request, and the full-registry Prometheus exposition
		// is what a scraper pays per poll. Both join the recorded baseline
		// so a regression in either fails benchdiff.
		{
			Name:      "obs-histogram",
			Pkg:       "./internal/obs",
			Pattern:   "^BenchmarkHistogramObserve$",
			Record:    true,
			Benchtime: "100ms",
		},
		{
			Name:      "telemetry",
			Pkg:       "./internal/telemetry",
			Pattern:   "^BenchmarkMetricsExposition$",
			Record:    true,
			Benchtime: "100ms",
		},
		// Micro benchmarks inside internal packages, including the
		// BenchmarkObsOverhead disabled-path guard: smoke-only.
		{
			Name:    "internal",
			Pkg:     "./internal/...",
			Pattern: ".",
			Record:  false,
		},
	}
}
