// Package experiments reproduces every table and figure of the paper's
// evaluation. Each experiment has a typed result (so tests and benchmarks
// can assert the paper's shape) and a text rendition (so cmd/experiments
// prints the same rows the paper reports). A Runner caches the expensive
// per-benchmark analyses so the figures that share them (5-10, 12) pay the
// profiling cost once, and each benchmark's Whole run — one replay with
// ldstmix, allcache and the timing core attached, as PinPoints replays a
// Whole pinball — so Figures 3, 7-10 and the shoot-out share one pass.
//
// The suite pipeline is parallel at two layers: per-benchmark passes inside
// each figure fan out across Options.Workers goroutines (results are
// collected into index-addressed slices, so output order and every reported
// aggregate are identical for any worker count), and the underlying
// analysis and Whole-run caches are singleflight groups, so concurrent
// figures never duplicate an expensive core.Analyze or whole-program pass.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sync"

	"specsampling/internal/cache"
	"specsampling/internal/core"
	"specsampling/internal/native"
	"specsampling/internal/obs"
	"specsampling/internal/sched"
	"specsampling/internal/selector"
	"specsampling/internal/store"
	"specsampling/internal/timing"
	"specsampling/internal/workload"
)

// fig3Benchmark is the subject of the paper's Figure 3 sensitivity studies.
const fig3Benchmark = "623.xalancbmk_s"

// Options configures a Runner. The zero value is safe: Normalize resolves
// the scale to ScaleMedium, the benchmark list to the full suite, and the
// analysis defaults to the paper's configuration.
type Options struct {
	// Scale selects the workload scale; the zero value means ScaleMedium.
	Scale workload.Scale
	// Benchmarks restricts the suite (full names); empty means all 29.
	Benchmarks []string
	// Workers bounds the suite-level fan-out (per-benchmark analyses and
	// figure loops) and the parallel replay within each analysis; <= 0 uses
	// GOMAXPROCS (via sched.Workers). All results are identical for every
	// worker count.
	Workers int
	// Out receives the text renditions; nil discards them.
	Out io.Writer
	// Store is the persistent artifact cache backing the in-memory
	// singleflight caches (memory → disk → compute); nil disables
	// persistence. Artifacts served from disk yield byte-identical results,
	// so a Store only changes wall-clock time — and makes interrupted runs
	// resumable.
	Store *store.Store
	// Selector names the region-selection backend every experiment runs
	// with; empty means selector.DefaultName ("simpoint"). The shoot-out
	// experiment ignores this and runs every registered backend.
	Selector string
	// ShootoutRepeats is the number of repeated-subsampling runs (shifted
	// seeds) behind the shoot-out's confidence intervals; <= 0 uses
	// DefaultShootoutRepeats, and values below 2 are raised to 2 (a CI
	// needs at least two observations).
	ShootoutRepeats int
}

// DefaultShootoutRepeats is the shoot-out's repeated-subsampling count.
const DefaultShootoutRepeats = 5

// Normalize resolves zero values to their documented defaults. Idempotent;
// New calls it, so sparse literals are safe.
func (o Options) Normalize() Options {
	if o.Scale.Name == "" {
		o.Scale = workload.ScaleMedium
	}
	if o.ShootoutRepeats <= 0 {
		o.ShootoutRepeats = DefaultShootoutRepeats
	}
	if o.ShootoutRepeats < 2 {
		o.ShootoutRepeats = 2
	}
	return o
}

// Runner executes experiments with shared, cached analyses.
type Runner struct {
	opts  Options
	specs []workload.Spec
	// cfg is the single analysis configuration every experiment derives
	// from: core defaults at the runner's scale plus the worker budget.
	// Figures that override a knob (Fig3b's slice length) copy it.
	cfg core.Config

	// mu guards the analyze progress: planned is every benchmark the runs
	// so far analyse (the total), analyzed the analyses completed.
	mu       sync.Mutex
	planned  map[string]bool
	analyzed int

	// store is the optional persistent layer under the singleflight caches.
	store *store.Store

	// Singleflight caches: concurrent figures requesting the same
	// benchmark share one computation instead of duplicating it.
	analyses sched.Group[string, *core.Analysis]
	wholes   sched.Group[string, core.Measurement]
	natives  sched.Group[string, timing.Counters]
	fig8     sched.Group[struct{}, *Fig8Result]
}

// New builds a runner. Unknown benchmark names are reported immediately.
func New(opts Options) (*Runner, error) {
	opts = opts.Normalize()
	var specs []workload.Spec
	if len(opts.Benchmarks) == 0 {
		specs = workload.Suite()
	} else {
		for _, name := range opts.Benchmarks {
			s, err := workload.ByName(name)
			if err != nil {
				return nil, err
			}
			specs = append(specs, s)
		}
	}
	cfg := core.DefaultConfig(opts.Scale)
	cfg.Workers = opts.Workers
	cfg.Selector = opts.Selector
	cfg = cfg.Normalize()
	// Resolve the selector now so an unknown name fails at construction,
	// not deep inside the first analysis.
	if _, err := selector.ByName(cfg.Selector); err != nil {
		return nil, err
	}
	return &Runner{opts: opts, specs: specs, cfg: cfg, store: opts.Store, planned: map[string]bool{}}, nil
}

// Config returns the unified analysis configuration the runner hands to
// core.Analyze (scale, selector, seed, worker budget).
func (r *Runner) Config() core.Config { return r.cfg }

// Describe summarises the run configuration in one line — the header the
// paper-scale tools print before starting work.
func (r *Runner) Describe() string {
	return fmt.Sprintf("scale=%s slice=%d selector=%s maxk=%d seed=%d workers=%d benchmarks=%d",
		r.opts.Scale.Name, r.opts.Scale.SliceLen, r.cfg.Selector, r.cfg.SimPoint.MaxK,
		r.cfg.Seed, r.workers(), len(r.specs))
}

// Scale returns the runner's workload scale.
func (r *Runner) Scale() workload.Scale { return r.opts.Scale }

// Benchmarks returns the selected benchmark specs.
func (r *Runner) Benchmarks() []workload.Spec { return r.specs }

// CacheConfig is the scaled Table I hierarchy used by all cache
// experiments.
func (r *Runner) CacheConfig() cache.HierarchyConfig {
	return cache.ScaledHierarchy(cache.TableIConfig(), r.opts.Scale.CacheDivs)
}

// TimingConfig is the scaled Table III machine used by the CPI experiments.
func (r *Runner) TimingConfig() timing.Config {
	return timing.ScaledConfig(timing.TableIIIConfig(), r.opts.Scale.CacheDivs)
}

// workers resolves the runner's worker budget.
func (r *Runner) workers() int { return sched.Workers(r.opts.Workers) }

// forEachSpec fans fn out over the selected benchmarks across the worker
// budget. fn receives the benchmark's suite index so it can write results
// into index-addressed slots, keeping output order schedule-independent.
func (r *Runner) forEachSpec(ctx context.Context, fn func(i int, spec workload.Spec) error) error {
	return sched.ForEach(ctx, r.workers(), len(r.specs), func(i int) error {
		return fn(i, r.specs[i])
	})
}

// analysis returns (and caches) the benchmark's SimPoint analysis. The
// compute is wrapped in a per-key singleflight, so two figures racing for
// the same benchmark run core.Analyze once and share the result; the
// persistent store (when configured) sits under the singleflight, so the
// lookup order is memory cache → disk store → compute. Completed analyses
// emit one progress event each, so a live run shows per-benchmark
// advancement through the dominant pipeline stage, against the total of
// benchmarks the runs so far plan to analyse.
func (r *Runner) analysis(ctx context.Context, spec workload.Spec) (*core.Analysis, error) {
	return r.analyses.Do(ctx, spec.Name, func() (*core.Analysis, error) {
		an, err := core.AnalyzeStored(ctx, spec, r.cfg, r.store)
		if err != nil {
			return nil, fmt.Errorf("experiments: analyze %s: %w", spec.Name, err)
		}
		r.mu.Lock()
		r.planned[spec.Name] = true
		r.analyzed++
		done, total := r.analyzed, len(r.planned)
		r.mu.Unlock()
		obs.ProgressCtx(ctx, "analyze", done, total, spec.Name)
		return an, nil
	})
}

// wholeKey is the store key of a whole-run artifact. The Whole run is a
// function of the built program alone (benchmark + scale) plus the
// scale-derived cache hierarchy and timing machine (or, for whole_native,
// the scale-derived native machine), so the scale identifies it completely.
func (r *Runner) wholeKey(kind, bench string) store.Key {
	return store.Key{Kind: kind, Bench: bench, Parts: []string{
		"scale=" + r.opts.Scale.Name,
		fmt.Sprintf("div=%d", r.opts.Scale.Div),
	}}
}

// whole returns the benchmark's analysis and (caching it) its Whole run:
// one core.MeasureWhole pass with every whole-run tool attached — ldstmix,
// allcache over CacheConfig and the timing core of TimingConfig — as
// PinPoints replays a Whole pinball once with all its Pintools. It is
// stored as kind whole and looked up memory → disk → compute; callers read
// the profile they compare against with Mix, Cache or CPI.
func (r *Runner) whole(ctx context.Context, spec workload.Spec) (*core.Analysis, core.Measurement, error) {
	an, err := r.analysis(ctx, spec)
	if err != nil {
		return nil, core.Measurement{}, err
	}
	w, err := wholeKind(ctx, r, &r.wholes, "whole", spec.Name, func() (core.Measurement, error) {
		hier, tcfg := r.CacheConfig(), r.TimingConfig()
		return an.MeasureWhole(ctx, core.Tools{Mix: true, Cache: &hier, CPI: &tcfg})
	})
	return an, w, err
}

// perfStat returns (and caches) the benchmark's native perf-stat counters,
// the reference of Figure 12: one whole-program run on the native machine
// (native.PerfStat, run index 0), looked up memory → disk → compute as kind
// whole_native. The machine constants and the noise are code constants,
// which store.Version covers, so wholeKey identifies the run. The compute
// runs under a "native" span.
func (r *Runner) perfStat(ctx context.Context, an *core.Analysis) (timing.Counters, error) {
	return wholeKind(ctx, r, &r.natives, "whole_native", an.Spec.Name, func() (timing.Counters, error) {
		_, span := obs.Start(ctx, "native", obs.String("bench", an.Spec.Name))
		defer span.End()
		return native.PerfStat(an.Prog, r.opts.Scale.CacheDivs, 0)
	})
}

// wholeKind is one whole-run artifact's memory → disk → compute lookup.
func wholeKind[P any](ctx context.Context, r *Runner, g *sched.Group[string, P], kind, bench string, compute func() (P, error)) (P, error) {
	return g.Do(ctx, bench, func() (P, error) {
		key := r.wholeKey(kind, bench)
		var p P
		if r.store.Get(ctx, key, &p) {
			return p, nil
		}
		p, err := compute()
		if err != nil {
			return p, err
		}
		_ = r.store.Put(ctx, key, p) // cache write failure must not fail the run
		return p, nil
	})
}

// printf writes to the configured output.
func (r *Runner) printf(format string, args ...interface{}) {
	if r.opts.Out == nil {
		return
	}
	fmt.Fprintf(r.opts.Out, format, args...)
}

// need is what an experiment reads that Prewarm can compute ahead of it.
type need uint8

const (
	// needAnalyses is every selected benchmark's analysis.
	needAnalyses need = 1 << iota
	// needWhole is every selected benchmark's analysis and whole artifact.
	needWhole
	// needNative is every selected benchmark's analysis and whole_native
	// artifact.
	needNative
	// needFig3 is fig3Benchmark's analysis and whole artifact.
	needFig3
)

// experiment is one entry of the paper's evaluation: its id, what Prewarm
// computes for it, and its run, which prints the text rendition and returns
// the typed result. A nil result is a pure configuration print and is not
// recorded.
type experiment struct {
	id    string
	needs need
	run   func(ctx context.Context, r *Runner) (any, error)
}

// table is the paper's evaluation in paper order, and the one place an
// experiment id is spelled out: adding an experiment is adding an entry.
var table = []experiment{
	{"tableI", 0, func(_ context.Context, r *Runner) (any, error) { r.TableI(); return nil, nil }},
	{"tableII", needAnalyses, func(ctx context.Context, r *Runner) (any, error) { return r.TableII(ctx) }},
	{"tableIII", 0, func(_ context.Context, r *Runner) (any, error) { r.TableIII(); return nil, nil }},
	{"fig3a", needFig3, func(ctx context.Context, r *Runner) (any, error) { return r.Fig3a(ctx, fig3Benchmark, nil) }},
	{"fig3b", needFig3, func(ctx context.Context, r *Runner) (any, error) { return r.Fig3b(ctx, fig3Benchmark, nil) }},
	{"fig4", needAnalyses, func(ctx context.Context, r *Runner) (any, error) { return r.Fig4(ctx, nil) }},
	{"fig5", needAnalyses, func(ctx context.Context, r *Runner) (any, error) { return r.Fig5(ctx) }},
	{"fig6", needAnalyses, func(ctx context.Context, r *Runner) (any, error) { return r.Fig6(ctx) }},
	{"fig7", needWhole, func(ctx context.Context, r *Runner) (any, error) { return r.Fig7(ctx) }},
	{"fig8", needWhole, func(ctx context.Context, r *Runner) (any, error) { return r.Fig8(ctx) }},
	{"fig9", needWhole, func(ctx context.Context, r *Runner) (any, error) { return r.Fig9(ctx, nil) }},
	{"fig10", needWhole, func(ctx context.Context, r *Runner) (any, error) { return r.Fig10(ctx) }},
	{"fig12", needNative, func(ctx context.Context, r *Runner) (any, error) { return r.Fig12(ctx) }},
	{"shootout", needWhole, func(ctx context.Context, r *Runner) (any, error) { return r.Shootout(ctx) }},
}

// IDs enumerates the experiment identifiers RunRecorded accepts, in paper
// order.
func IDs() []string {
	ids := make([]string, len(table))
	for i, e := range table {
		ids[i] = e.id
	}
	return ids
}

// Known reports whether RunRecorded accepts id: an id of IDs() or "all".
func Known(id string) bool {
	_, err := entries(id)
	return err == nil
}

// entries returns the table entries id names: one, or every entry for
// "all".
func entries(id string) ([]experiment, error) {
	if id == "all" {
		return table, nil
	}
	for i := range table {
		if table[i].id == id {
			return table[i : i+1], nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (want one of %v or all)", id, IDs())
}

// prewarmJob is one benchmark's share of a Prewarm: its analysis, and the
// whole-run artifacts the requested experiments read.
type prewarmJob struct {
	spec          workload.Spec
	whole, native bool
}

// plan lists the benchmarks whose analyses n reads, with the whole-run
// artifacts each needs, and adds them to the analyze progress total.
func (r *Runner) plan(n need) ([]prewarmJob, error) {
	var jobs []prewarmJob
	if n&(needAnalyses|needWhole|needNative) != 0 {
		for _, spec := range r.specs {
			jobs = append(jobs, prewarmJob{spec, n&needWhole != 0, n&needNative != 0})
		}
	}
	if n&needFig3 != 0 {
		spec, err := workload.ByName(fig3Benchmark)
		if err != nil {
			return nil, err
		}
		i := 0
		for i < len(jobs) && jobs[i].spec.Name != spec.Name {
			i++
		}
		if i == len(jobs) {
			jobs = append(jobs, prewarmJob{spec: spec})
		}
		jobs[i].whole = true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, job := range jobs {
		r.planned[job.spec.Name] = true
	}
	return jobs, nil
}

// Prewarm precomputes, in parallel across the worker budget, every
// per-benchmark analysis, Whole run and native reference the given
// experiment ids will need ("all" expands to every experiment). Figures
// executed afterwards find their inputs cached and only pay their own
// incremental replay cost. Calling Prewarm is never required — the figure
// loops are parallel and the caches are singleflight either way — but it
// front-loads the dominant cost into one suite-wide fan-out.
func (r *Runner) Prewarm(ctx context.Context, ids ...string) error {
	var n need
	for _, id := range ids {
		es, err := entries(id)
		if err != nil {
			return err
		}
		for _, e := range es {
			n |= e.needs
		}
	}
	jobs, err := r.plan(n)
	if err != nil {
		return err
	}
	return sched.ForEach(ctx, r.workers(), len(jobs), func(i int) error {
		job := jobs[i]
		an, err := r.analysis(ctx, job.spec)
		if err == nil && job.whole {
			_, _, err = r.whole(ctx, job.spec)
		}
		if err == nil && job.native {
			_, err = r.perfStat(ctx, an)
		}
		return err
	})
}

// RunRecorded executes one experiment by id ("all" prewarms the shared
// analyses in parallel, then runs every experiment in paper order) and
// records each typed result into the report. The run announces its
// configuration through the progress sink on entry; ctx cancellation aborts
// between (and inside) stages.
func (r *Runner) RunRecorded(ctx context.Context, id string, report *Report) error {
	obs.HeaderfCtx(ctx, "%s", r.Describe())
	es, err := entries(id)
	if err != nil {
		return err
	}
	if id != "all" {
		if _, err := r.plan(es[0].needs); err != nil {
			return err
		}
		return r.record(ctx, es[0], report)
	}
	if err := r.Prewarm(ctx, "all"); err != nil {
		return err
	}
	for i, e := range es {
		obs.ProgressCtx(ctx, "experiment", i+1, len(es), e.id)
		if err := r.record(ctx, e, report); err != nil {
			return err
		}
	}
	return nil
}

// record runs one experiment under its span and records a non-nil result.
func (r *Runner) record(ctx context.Context, e experiment, report *Report) error {
	ctx, span := obs.Start(ctx, "experiment", obs.String("id", e.id))
	defer span.End()
	res, err := e.run(ctx, r)
	if err == nil && res != nil {
		report.Record(e.id, res)
	}
	return err
}
