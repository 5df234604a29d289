package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"specsampling/internal/core"
	"specsampling/internal/experiments"
	"specsampling/internal/pinball"
	"specsampling/internal/program"
	"specsampling/internal/sched"
	"specsampling/internal/selector"
	"specsampling/internal/simpoint"
	"specsampling/internal/store"
	"specsampling/internal/workload"
)

// sizing is how much work each workload does. fullSize is the benchmark;
// the package tests run a smaller one.
type sizing struct {
	coldScale            workload.Scale
	coldBenches          []string // nil means all 29
	coldSeeds            int      // selection seeds per cold pass
	coldPassSeconds      float64  // nominal pass time: passes = seconds / this
	remeasureScale       workload.Scale
	remeasureBenches     []string
	remeasureSeeds       int
	remeasurePassSeconds float64
	daemonBenches        []string // nil means all 29
	daemonJobs           int      // fresh jobs per open-loop segment
	daemonRate           float64  // open-loop fresh-job arrivals per second
}

var fullSize = sizing{
	coldScale:       workload.ScaleSmall,
	coldSeeds:       4,
	coldPassSeconds: 30,
	remeasureScale:  workload.ScaleMedium,
	// Spans phase counts (2 to 30+ simulation points) and footprints from
	// cache-resident (exchange2, povray) to streaming (lbm, bwaves, mcf).
	remeasureBenches: []string{
		"505.mcf_r", "520.omnetpp_r", "503.bwaves_r", "548.exchange2_r",
		"519.lbm_r", "557.xz_r", "623.xalancbmk_s", "511.povray_r",
	},
	remeasureSeeds:       8,
	remeasurePassSeconds: 8,
	daemonJobs:           100,
	daemonRate:           15,
}

// specsFor resolves benchmark names; nil means the whole suite.
func specsFor(names []string) ([]workload.Spec, error) {
	if names == nil {
		return workload.Suite(), nil
	}
	var specs []workload.Spec
	for _, n := range names {
		s, err := workload.ByName(n)
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	return specs, nil
}

// profileArtifact mirrors the stored form of core's profile stage (gob
// matches fields by name), so core.AnalyzeStored reads what a pass writes.
type profileArtifact struct {
	Slices      []simpoint.Slice
	TotalInstrs uint64
}

// selectorConfig lowers a core.Config to the selector's configuration the
// way core does before calling Select.
func selectorConfig(c core.Config) selector.Config {
	c = c.Normalize()
	sliceLen := c.SliceLen
	if sliceLen == 0 {
		sliceLen = c.Scale.SliceLen
	}
	return selector.Config{
		SliceLen:   sliceLen,
		Seed:       c.Seed,
		Workers:    c.Workers,
		SimPoint:   c.SimPoint,
		Stratified: c.Stratified,
		RankedSet:  c.RankedSet,
	}.Normalize()
}

// pipeline is one pass over a benchmark list: build → profile → select →
// store.put → cut with warm-up → whole-run cache+CPI → sampled cache+CPI.
// A warm pass reads the profile and selections back from the store
// instead. Each benchmark is selected and sampled under seeds consecutive
// selection seeds starting at cfg.Seed (repeated subsampling); the profile
// and the whole-run reference are shared by all of them.
type pipeline struct {
	specs   []workload.Spec
	cfg     core.Config
	seeds   int
	workers int
	st      *store.Store
	warm    bool
	clock   *layerClock // nil: untraced
}

// benchOut is one benchmark's pass result; its rendering is what the
// byte-identity checks compare.
type benchOut struct {
	Bench       string
	Slices      int
	TotalInstrs uint64
	WholeCache  core.CacheProfile
	WholeCPI    core.CPIProfile
	Sampled     []sampledOut // one per selection seed
}

// sampledOut is one selection's sampled measurement.
type sampledOut struct {
	Points []pointOut
	Cache  core.CacheProfile
	CPI    core.CPIProfile
	Instrs uint64 // replayed per sampled measurement, warm-up included
}

type pointOut struct {
	Slice  int
	Weight float64
}

// passOut is one pass's outputs and timings.
type passOut struct {
	benches    []benchOut
	selections [][]*simpoint.Result // [benchmark][seed]
	wall       time.Duration
	cpu        float64   // process CPU seconds the pass used
	benchMs    []float64 // per-benchmark pass latency
	storeMs    []float64 // per store call
	gets, hits int
	puts       int
}

// render is the pass's byte rendering, selections included.
func (p *passOut) render() []byte {
	var buf bytes.Buffer
	for i, b := range p.benches {
		fmt.Fprintf(&buf, "%+v\n", b)
		for _, res := range p.selections[i] {
			fmt.Fprintf(&buf, "%+v\n", *res)
		}
	}
	return buf.Bytes()
}

// accuracy sets the three deterministic sampling-quality metrics, means
// over benchmarks and selection seeds.
func (p *passOut) accuracy(e2e map[string]float64) {
	var cpiErr, l3Err, sampled, whole, n float64
	for _, b := range p.benches {
		for _, s := range b.Sampled {
			cpiErr += math.Abs(s.CPI.CPI-b.WholeCPI.CPI) / b.WholeCPI.CPI * 100
			l3Err += math.Abs(s.Cache.L3-b.WholeCache.L3) * 100
			sampled += float64(s.Instrs)
			whole += float64(b.TotalInstrs)
			n++
		}
	}
	e2e["cpi_err_pct"] = ratio(cpiErr, n)
	e2e["l3_miss_err_pp"] = ratio(l3Err, n)
	e2e["sampled_instr_pct"] = ratio(sampled, whole) * 100
}

func (p *pipeline) run(ctx context.Context) (*passOut, error) {
	out := &passOut{
		benches:    make([]benchOut, len(p.specs)),
		selections: make([][]*simpoint.Result, len(p.specs)),
		benchMs:    make([]float64, len(p.specs)),
	}
	var mu sync.Mutex // guards out's store fields
	t0, c0 := time.Now(), cpuSeconds()
	err := sched.ForEach(ctx, p.workers, len(p.specs), func(i int) error {
		b0 := time.Now()
		calls, err := p.bench(ctx, i, out)
		out.benchMs[i] = ms(time.Since(b0))
		mu.Lock()
		out.storeMs = append(out.storeMs, calls.ms...)
		out.gets += calls.gets
		out.hits += calls.hits
		out.puts += calls.puts
		mu.Unlock()
		return err
	})
	out.wall = time.Since(t0)
	out.cpu = cpuSeconds() - c0
	return out, err
}

// storeCalls records one benchmark's store traffic. Store calls are timed
// in every pass: their latency is an end-to-end metric (api_p99_ms).
type storeCalls struct {
	ms               []float64
	gets, hits, puts int
}

func (p *pipeline) get(ctx context.Context, sc *storeCalls, key store.Key, v interface{}) bool {
	var hit bool
	t0 := time.Now()
	_ = p.clock.time("store.get", func() error { hit = p.st.Get(ctx, key, v); return nil })
	sc.ms = append(sc.ms, ms(time.Since(t0)))
	sc.gets++
	if hit {
		sc.hits++
	}
	return hit
}

func (p *pipeline) put(ctx context.Context, sc *storeCalls, key store.Key, v interface{}) error {
	t0 := time.Now()
	err := p.clock.time("store.put", func() error { return p.st.Put(ctx, key, v) })
	sc.ms = append(sc.ms, ms(time.Since(t0)))
	sc.puts++
	return err
}

// seedConfig is the pass's configuration under its k-th selection seed.
func (p *pipeline) seedConfig(k int) core.Config {
	cfg := p.cfg
	cfg.Seed += uint64(k)
	return cfg
}

// bench runs one benchmark's pass into out's i-th slots.
func (p *pipeline) bench(ctx context.Context, i int, out *passOut) (storeCalls, error) {
	var sc storeCalls
	spec, c := p.specs[i], p.clock
	sel, err := selector.ByName(p.cfg.Selector)
	if err != nil {
		return sc, err
	}
	var prog *program.Program
	if err := c.time("workload.build", func() (err error) {
		prog, err = spec.Build(p.cfg.Scale)
		return err
	}); err != nil {
		return sc, err
	}
	var prof profileArtifact
	if p.warm {
		if !p.get(ctx, &sc, p.cfg.ProfileKey(spec.Name), &prof) {
			return sc, fmt.Errorf("%s: profile missing from the store", spec.Name)
		}
	} else {
		if err := c.time("simpoint.profile", func() (err error) {
			prof.Slices, prof.TotalInstrs, err = simpoint.Profile(prog, selectorConfig(p.cfg).SliceLen)
			return err
		}); err != nil {
			return sc, err
		}
		if err := p.put(ctx, &sc, p.cfg.ProfileKey(spec.Name), prof); err != nil {
			return sc, err
		}
	}
	results := make([]*simpoint.Result, p.seeds)
	for k := range results {
		cfg := p.seedConfig(k)
		scfg := selectorConfig(cfg)
		if p.warm {
			var stored simpoint.Result
			if !p.get(ctx, &sc, cfg.ClusterKey(spec.Name), &stored) {
				return sc, fmt.Errorf("%s: selection missing from the store", spec.Name)
			}
			// core restates the non-semantic config echo on a hit; so do we.
			stored.Config = sel.EchoConfig(scfg)
			results[k] = &stored
			continue
		}
		if err := c.time("selector.select", func() (err error) {
			results[k], err = sel.Select(ctx, prog.Name, prof.Slices, prof.TotalInstrs, scfg)
			return err
		}); err != nil {
			return sc, err
		}
		if err := p.put(ctx, &sc, cfg.ClusterKey(spec.Name), results[k]); err != nil {
			return sc, err
		}
	}

	an := &core.Analysis{
		Spec: spec, Prog: prog, Config: p.cfg,
		Slices: prof.Slices, TotalInstrs: prof.TotalInstrs,
	}
	b := benchOut{Bench: spec.Name, Slices: len(prof.Slices), TotalInstrs: prof.TotalInstrs}
	if err := c.time("core.whole", func() (err error) {
		if b.WholeCache, err = an.WholeCache(ctx, an.CacheConfig()); err != nil {
			return err
		}
		b.WholeCPI, err = an.WholeCPI(ctx, an.TimingConfig())
		return err
	}); err != nil {
		return sc, err
	}
	for _, res := range results {
		var s sampledOut
		for _, pt := range res.Points {
			s.Points = append(s.Points, pointOut{pt.SliceIndex, pt.Weight})
		}
		var pbs []*pinball.Pinball
		if err := c.time("core.cut", func() (err error) {
			pbs, err = an.Pinballs(res, experiments.DefaultWarmupSlices)
			return err
		}); err != nil {
			return sc, err
		}
		for _, pb := range pbs {
			s.Instrs += pb.Len + pb.WarmupLen
		}
		if err := c.time("core.sampled", func() (err error) {
			if s.Cache, err = an.SampledCache(ctx, pbs, an.CacheConfig()); err != nil {
				return err
			}
			s.CPI, err = an.SampledCPI(ctx, pbs, an.TimingConfig())
			return err
		}); err != nil {
			return sc, err
		}
		b.Sampled = append(b.Sampled, s)
	}
	out.benches[i] = b
	out.selections[i] = results
	return sc, nil
}

// referenceSelections is what the product computes for each benchmark
// under the pass's first selection seed: core.AnalyzeStored with no store,
// rendered for comparison with the pass.
func referenceSelections(ctx context.Context, specs []workload.Spec, cfg core.Config, workers int) ([]string, error) {
	refs := make([]string, len(specs))
	err := sched.ForEach(ctx, workers, len(specs), func(i int) error {
		an, err := core.AnalyzeStored(ctx, specs[i], cfg, nil)
		if err != nil {
			return err
		}
		refs[i] = fmt.Sprintf("%+v", *an.Result)
		return nil
	})
	return refs, err
}

// checkSelections compares a pass's first-seed selections with the
// product's.
func checkSelections(o *outcome, specs []workload.Spec, out *passOut, refs []string) {
	for i, spec := range specs {
		got := fmt.Sprintf("%+v", *out.selections[i][0])
		o.check(got == refs[i], "%s: the pass's selection differs from core.AnalyzeStored", spec.Name)
	}
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) float64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return float64(n)
}

// openStore opens a fresh, empty store in a new directory under parent.
func openStore(parent string) (*store.Store, error) {
	dir, err := os.MkdirTemp(parent, "store-")
	if err != nil {
		return nil, err
	}
	return store.Open(dir)
}

// pipelineE2E fills the metrics common to the pipeline workloads from
// their untraced passes, as medians over passes. A "job" is one
// benchmark's pass; the "API" is the pass's store calls.
func pipelineE2E(o *outcome, passes []*passOut, seeds int) {
	e2e := o.e2e
	var p50, p90, api99, cpu []float64
	for _, p := range passes {
		p50 = append(p50, quantile(p.benchMs, 0.5))
		p90 = append(p90, quantile(p.benchMs, 0.9))
		api99 = append(api99, quantile(p.storeMs, 0.99))
		cpu = append(cpu, p.cpu)
	}
	wall := median(wallsOf(passes))
	e2e["cpu_s"] = median(cpu)
	e2e["wall_s"] = wall
	e2e["job_p50_ms"] = median(p50)
	e2e["job_p90_ms"] = median(p90)
	e2e["api_p99_ms"] = median(api99)
	e2e["capacity_jobs_s"] = float64(len(passes[0].benches)) / wall
	passes[0].accuracy(e2e)
	o.note = fmt.Sprintf("%d passes of %d benchmarks x %d selection seeds (%d job and %d store-call latencies a pass)",
		len(passes), len(passes[0].benches), seeds, len(passes[0].benchMs), len(passes[0].storeMs))
}

func wallsOf(passes []*passOut) []float64 {
	var w []float64
	for _, p := range passes {
		w = append(w, p.wall.Seconds())
	}
	return w
}

// pipelineLayers fills the per-layer metrics of one traced pass.
func pipelineLayers(layer map[string]float64, p *pipeline, out *passOut, before, after counters, untracedWall float64, storeDir string) {
	c := p.clock
	var points, wholeInstrs, sampledInstrs float64
	for i, b := range out.benches {
		if !p.warm {
			for _, res := range out.selections[i] {
				points += float64(len(res.Points))
			}
		}
		wholeInstrs += float64(b.WholeCache.Instrs + b.WholeCPI.Instrs)
		for _, s := range b.Sampled {
			sampledInstrs += 2 * float64(s.Instrs)
		}
	}
	layer["selector.select_s"] = c.seconds("selector.select")
	layer["selector.points"] = points
	layer["kmeans.lloyd_iters"] = after.delta(before, "kmeans.lloyd_iters")
	skips := after.delta(before, "kmeans.bounds_skips")
	layer["kmeans.bound_skip_ratio"] = ratio(skips, skips+after.delta(before, "kmeans.bounds_scans"))
	layer["workload.build_s"] = c.seconds("workload.build")
	layer["simpoint.profile_s"] = c.seconds("simpoint.profile")
	layer["simpoint.slices"] = after.delta(before, "profile.slices")
	layer["core.whole_s"] = c.seconds("core.whole")
	layer["core.whole_minstr_per_s"] = ratio(wholeInstrs/1e6, c.seconds("core.whole"))
	layer["core.sampled_s"] = c.seconds("core.sampled")
	layer["core.sampled_minstr_per_s"] = ratio(sampledInstrs/1e6, c.seconds("core.sampled"))
	layer["core.cut_s"] = c.seconds("core.cut")
	layer["pinball.replays"] = after.delta(before, "pinball.replayed")
	layer["store.get_s"] = c.seconds("store.get")
	layer["store.gets"] = float64(out.gets)
	layer["store.hit_ratio"] = ratio(float64(out.hits), float64(out.gets))
	layer["store.put_s"] = c.seconds("store.put")
	layer["store.puts"] = float64(out.puts)
	if out.puts > 0 {
		layer["store.put_bytes"] = dirBytes(storeDir)
	}
	layer["runtime.heap_mb"] = heapMB()
	traced := out.wall.Seconds()
	layer["trace.coverage"] = ratio(c.total(), float64(p.workers)*traced)
	layer["trace.overhead"] = ratio(traced, untracedWall) - 1
}

// measurePasses runs untraced passes, each from a fresh pipeline made by
// next. The count is fixed by the time budget and the workload's nominal
// pass time, so it does not depend on how fast this run happens to be.
func measurePasses(ctx context.Context, seconds, nominal float64, next func() (*pipeline, error)) ([]*passOut, error) {
	n := int(math.Round(seconds / nominal))
	if n < 1 {
		n = 1
	}
	var passes []*passOut
	for i := 0; i < n; i++ {
		p, err := next()
		if err != nil {
			return nil, err
		}
		out, err := p.run(ctx)
		if err != nil {
			return nil, err
		}
		passes = append(passes, out)
	}
	return passes, nil
}

// tracedPass runs p with its layer clock and fills the per-layer metrics;
// its output must match want byte for byte.
func tracedPass(ctx context.Context, o *outcome, p *pipeline, want []byte, untracedWall float64) error {
	before := snapshotCounters()
	out, err := p.run(ctx)
	if err != nil {
		return err
	}
	after := snapshotCounters()
	ok, why := equalBytes(want, out.render())
	o.check(ok, "traced pass differs from the untraced one: %s", why)
	pipelineLayers(o.layer, p, out, before, after, untracedWall, p.st.Dir())
	return nil
}

// coldSuite: every benchmark at small scale through the whole pipeline
// into an empty store, with the seed as the first selection seed.
func coldSuite(ctx context.Context, opt options) (*outcome, error) {
	o := newOutcome()
	specs, err := specsFor(opt.size.coldBenches)
	if err != nil {
		return nil, err
	}
	cfg := core.Config{Scale: opt.size.coldScale, Seed: opt.seed, Workers: opt.workers}.Normalize()

	// Set-up: the product's own selections, which every pass must match.
	c0 := cpuSeconds()
	refs, err := referenceSelections(ctx, specs, cfg, opt.workers)
	if err != nil {
		return nil, err
	}
	o.e2e["setup_s"] = cpuSeconds() - c0
	resetPeakRSS()

	fresh := func(clock *layerClock) (*pipeline, error) {
		st, err := openStore(opt.workdir)
		if err != nil {
			return nil, err
		}
		return &pipeline{specs: specs, cfg: cfg, seeds: opt.size.coldSeeds, workers: opt.workers, st: st, clock: clock}, nil
	}
	passes, err := measurePasses(ctx, opt.seconds, opt.size.coldPassSeconds, func() (*pipeline, error) { return fresh(nil) })
	if err != nil {
		return nil, err
	}
	pipelineE2E(o, passes, opt.size.coldSeeds)
	first := passes[0].render()
	for i, p := range passes {
		ok, why := equalBytes(first, p.render())
		o.check(ok, "cold pass %d differs from pass 0: %s", i, why)
		checkSelections(o, specs, p, refs)
	}
	if opt.trace {
		p, err := fresh(newLayerClock())
		if err != nil {
			return nil, err
		}
		if err := tracedPass(ctx, o, p, first, median(wallsOf(passes))); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// remeasure: eight medium-scale benchmarks whose profiles and selections
// set-up computed into the store; each timed pass reads them back and
// re-simulates every whole-run and sampled replay.
func remeasure(ctx context.Context, opt options) (*outcome, error) {
	o := newOutcome()
	specs, err := specsFor(opt.size.remeasureBenches)
	if err != nil {
		return nil, err
	}
	cfg := core.Config{Scale: opt.size.remeasureScale, Seed: opt.seed, Workers: opt.workers}.Normalize()

	// Set-up: a cold pass fills the store and renders the expected output;
	// the product's selections check the pass's.
	c0 := cpuSeconds()
	st, err := openStore(opt.workdir)
	if err != nil {
		return nil, err
	}
	newPass := func(warm bool, clock *layerClock) *pipeline {
		return &pipeline{specs: specs, cfg: cfg, seeds: opt.size.remeasureSeeds, workers: opt.workers, st: st, warm: warm, clock: clock}
	}
	coldOut, err := newPass(false, nil).run(ctx)
	if err != nil {
		return nil, err
	}
	refs, err := referenceSelections(ctx, specs, cfg, opt.workers)
	if err != nil {
		return nil, err
	}
	o.e2e["setup_s"] = cpuSeconds() - c0
	resetPeakRSS()
	checkSelections(o, specs, coldOut, refs)
	expected := coldOut.render()

	passes, err := measurePasses(ctx, opt.seconds, opt.size.remeasurePassSeconds, func() (*pipeline, error) { return newPass(true, nil), nil })
	if err != nil {
		return nil, err
	}
	pipelineE2E(o, passes, opt.size.remeasureSeeds)
	for i, p := range passes {
		ok, why := equalBytes(expected, p.render())
		o.check(ok, "remeasure pass %d differs from the cold set-up pass: %s", i, why)
		o.check(p.hits == p.gets, "remeasure pass %d: %d of %d store reads hit", i, p.hits, p.gets)
	}
	if opt.trace {
		if err := tracedPass(ctx, o, newPass(true, newLayerClock()), expected, median(wallsOf(passes))); err != nil {
			return nil, err
		}
	}
	return o, nil
}
