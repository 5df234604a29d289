// Package experiments reproduces every table and figure of the paper's
// evaluation. Each experiment has a typed result (so tests and benchmarks
// can assert the paper's shape) and a text rendition (so cmd/experiments
// prints the same rows the paper reports). A Runner caches the expensive
// per-benchmark analyses so the figures that share them (5-10, 12) pay the
// profiling cost once.
//
// The suite pipeline is parallel at two layers: per-benchmark passes inside
// each figure fan out across Options.Workers goroutines (results are
// collected into index-addressed slices, so output order and every reported
// aggregate are identical for any worker count), and the underlying
// analysis/whole-profile caches are singleflight groups, so concurrent
// figures never duplicate an expensive core.Analyze pass.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"

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

	// analyzed counts completed per-benchmark analyses for progress events.
	analyzed atomic.Int64

	// store is the optional persistent layer under the singleflight caches.
	store *store.Store

	// Singleflight caches: concurrent figures requesting the same
	// benchmark share one computation instead of duplicating it.
	analyses sched.Group[string, *core.Analysis]
	wholeC   sched.Group[string, core.CacheProfile]
	wholeM   sched.Group[string, core.MixProfile]
	wholeP   sched.Group[string, core.CPIProfile]
	wholeN   sched.Group[string, timing.Counters]
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
	return &Runner{opts: opts, specs: specs, cfg: cfg, store: opts.Store}, nil
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
// advancement through the dominant pipeline stage.
func (r *Runner) analysis(ctx context.Context, spec workload.Spec) (*core.Analysis, error) {
	return r.analyses.Do(ctx, spec.Name, func() (*core.Analysis, error) {
		an, err := core.AnalyzeStored(ctx, spec, r.cfg, r.store)
		if err != nil {
			return nil, fmt.Errorf("experiments: analyze %s: %w", spec.Name, err)
		}
		obs.ProgressCtx(ctx, "analyze", int(r.analyzed.Add(1)), len(r.specs), spec.Name)
		return an, nil
	})
}

// wholeKey is the store key of a whole-run replay profile. The profile is a
// function of the built program alone (benchmark + scale) plus the
// scale-derived cache hierarchy (or, for whole_native, the scale-derived
// native machine), so the scale identifies it completely.
func (r *Runner) wholeKey(kind, bench string) store.Key {
	return store.Key{Kind: kind, Bench: bench, Parts: []string{
		"scale=" + r.opts.Scale.Name,
		fmt.Sprintf("div=%d", r.opts.Scale.Div),
	}}
}

// wholeKinds is a set of whole-run profile kinds.
type wholeKinds struct{ mix, cache, cpi bool }

// wholeRun holds a benchmark's whole-run profiles; kinds not requested are
// zero.
type wholeRun struct {
	mix   core.MixProfile
	cache core.CacheProfile
	cpi   core.CPIProfile
}

// whole returns (and caches) the benchmark's whole-run profiles of the
// requested kinds. Each kind keeps its own singleflight group and store key
// (whole_mix, whole_cache, whole_cpi), looked up memory → disk → compute in
// that order; the first kind that misses both runs one core.MeasureWhole
// pass over every kind not yet served, and the later kinds take their
// profiles from that pass. So a caller needing several kinds replays the
// whole program at most once.
func (r *Runner) whole(ctx context.Context, an *core.Analysis, need wholeKinds) (wholeRun, error) {
	hier, tcfg := r.CacheConfig(), r.TimingConfig()
	left := need // kinds not yet served
	var pass *core.Measurement
	// measure runs the pass on its first call. Group.Do runs fn in the
	// calling goroutine, so pass and left need no lock.
	measure := func() (core.Measurement, error) {
		if pass == nil {
			tools := core.Tools{Mix: left.mix}
			if left.cache {
				tools.Cache = &hier
			}
			if left.cpi {
				tools.CPI = &tcfg
			}
			m, err := an.MeasureWhole(ctx, tools)
			if err != nil {
				return m, err
			}
			pass = &m
		}
		return *pass, nil
	}
	var out wholeRun
	var err error
	if need.mix {
		out.mix, err = wholeKind(ctx, r, &r.wholeM, "whole_mix", an.Spec.Name, func() (core.MixProfile, error) {
			m, err := measure()
			return m.Mix(), err
		})
		if err != nil {
			return out, err
		}
		left.mix = false
	}
	if need.cache {
		out.cache, err = wholeKind(ctx, r, &r.wholeC, "whole_cache", an.Spec.Name, func() (core.CacheProfile, error) {
			m, err := measure()
			return m.Cache(), err
		})
		if err != nil {
			return out, err
		}
		left.cache = false
	}
	if need.cpi {
		out.cpi, err = wholeKind(ctx, r, &r.wholeP, "whole_cpi", an.Spec.Name, func() (core.CPIProfile, error) {
			m, err := measure()
			return m.CPI(), err
		})
	}
	return out, err
}

// perfStat returns (and caches) the benchmark's native perf-stat counters,
// the reference of Figure 12: one whole-program run on the native machine
// (native.PerfStat, run index 0), looked up memory → disk → compute as kind
// whole_native. The machine constants and the noise are code constants,
// which store.Version covers, so wholeKey identifies the run. The compute
// runs under a "native" span.
func (r *Runner) perfStat(ctx context.Context, an *core.Analysis) (timing.Counters, error) {
	return wholeKind(ctx, r, &r.wholeN, "whole_native", an.Spec.Name, func() (timing.Counters, error) {
		_, span := obs.Start(ctx, "native", obs.String("bench", an.Spec.Name))
		defer span.End()
		return native.PerfStat(an.Prog, r.opts.Scale.CacheDivs, 0)
	})
}

// wholeKind is one kind's memory → disk → compute lookup.
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

// IDs enumerates the experiment identifiers Run accepts, in paper order.
func IDs() []string {
	return []string{
		"tableI", "tableII", "tableIII",
		"fig3a", "fig3b", "fig4", "fig5", "fig6",
		"fig7", "fig8", "fig9", "fig10", "fig12",
		"shootout",
	}
}

// prewarmNeeds describes what one benchmark needs before the requested
// experiments can run without recomputing anything.
type prewarmNeeds struct {
	spec workload.Spec
	wholeKinds
	native bool
}

// Prewarm precomputes, in parallel across the worker budget, every
// per-benchmark analysis, whole-run profile and native reference the given
// experiment ids will need ("all" expands to every experiment), with at
// most one whole-program pass per benchmark for the union of the whole-run
// kinds. Figures executed afterwards find their inputs cached and only pay
// their own incremental replay cost. Calling Prewarm is never required —
// the figure loops are parallel and the caches are singleflight either
// way — but it front-loads the dominant cost into one suite-wide fan-out.
func (r *Runner) Prewarm(ctx context.Context, ids ...string) error {
	var suite, suiteMix, suiteCache, suiteCPI, suiteNative, fig3 bool
	for _, id := range ids {
		switch id {
		case "all":
			suite, suiteMix, suiteCache, suiteCPI, suiteNative, fig3 = true, true, true, true, true, true
		case "tableII", "fig4", "fig5", "fig6":
			suite = true
		case "fig12":
			suite, suiteNative = true, true
		case "fig7":
			suite, suiteMix = true, true
		case "fig8", "fig10":
			suite, suiteCache = true, true
		case "fig9":
			suite, suiteMix, suiteCache = true, true, true
		case "shootout":
			suite, suiteMix, suiteCache, suiteCPI = true, true, true, true
		case "fig3a", "fig3b":
			fig3 = true
		case "tableI", "tableIII":
			// Pure configuration prints; nothing to warm.
		default:
			return fmt.Errorf("experiments: unknown experiment %q (want one of %v or all)", id, IDs())
		}
	}

	var jobs []prewarmNeeds
	if suite {
		for _, spec := range r.specs {
			jobs = append(jobs, prewarmNeeds{spec, wholeKinds{suiteMix, suiteCache, suiteCPI}, suiteNative})
		}
	}
	if fig3 {
		spec, err := workload.ByName(fig3Benchmark)
		if err != nil {
			return err
		}
		found := false
		for i := range jobs {
			if jobs[i].spec.Name == spec.Name {
				jobs[i].mix, jobs[i].cache = true, true
				found = true
			}
		}
		if !found {
			jobs = append(jobs, prewarmNeeds{spec: spec, wholeKinds: wholeKinds{mix: true, cache: true}})
		}
	}
	return sched.ForEach(ctx, r.workers(), len(jobs), func(i int) error {
		job := jobs[i]
		an, err := r.analysis(ctx, job.spec)
		if err != nil {
			return err
		}
		if _, err := r.whole(ctx, an, job.wholeKinds); err != nil {
			return err
		}
		if job.native {
			_, err = r.perfStat(ctx, an)
		}
		return err
	})
}

// Run executes one experiment by id ("all" prewarms the shared analyses in
// parallel, then runs every experiment in paper order). The run announces
// its configuration through the progress sink on entry; ctx cancellation
// aborts between (and inside) stages.
func (r *Runner) Run(ctx context.Context, id string) error {
	obs.HeaderfCtx(ctx, "%s", r.Describe())
	run := func(id string) error {
		ctx, span := obs.Start(ctx, "experiment", obs.String("id", id))
		defer span.End()
		switch id {
		case "tableI":
			r.TableI()
			return nil
		case "tableII":
			_, err := r.TableII(ctx)
			return err
		case "tableIII":
			r.TableIII()
			return nil
		case "fig3a":
			_, err := r.Fig3a(ctx, fig3Benchmark, nil)
			return err
		case "fig3b":
			_, err := r.Fig3b(ctx, fig3Benchmark, nil)
			return err
		case "fig4":
			_, err := r.Fig4(ctx, nil)
			return err
		case "fig5":
			_, err := r.Fig5(ctx)
			return err
		case "fig6":
			_, err := r.Fig6(ctx)
			return err
		case "fig7":
			_, err := r.Fig7(ctx)
			return err
		case "fig8":
			_, err := r.Fig8(ctx)
			return err
		case "fig9":
			_, err := r.Fig9(ctx, nil)
			return err
		case "fig10":
			_, err := r.Fig10(ctx)
			return err
		case "fig12":
			_, err := r.Fig12(ctx)
			return err
		case "shootout":
			_, err := r.Shootout(ctx)
			return err
		default:
			return fmt.Errorf("experiments: unknown experiment %q (want one of %v or all)", id, IDs())
		}
	}
	if id == "all" {
		if err := r.Prewarm(ctx, "all"); err != nil {
			return err
		}
		for i, each := range IDs() {
			obs.ProgressCtx(ctx, "experiment", i+1, len(IDs()), each)
			if err := run(each); err != nil {
				return err
			}
		}
		return nil
	}
	return run(id)
}
