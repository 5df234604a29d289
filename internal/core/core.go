// Package core is the reproduction's top-level API — the PinPoints flow of
// the paper (Figure 2) end to end:
//
//	benchmark ──(logger)──> whole pinball ──(BBV profile + SimPoint)──>
//	simulation points ──(checkpointing)──> regional pinballs ──(replay with
//	Pintools / Sniper)──> weighted statistics
//
// An Analysis holds the profiled slices of one benchmark so that the
// expensive whole-run profiling pass happens once; clustering sweeps
// (MaxK, slice size, percentile) and replay measurements reuse it.
package core

import (
	"context"
	"fmt"

	"specsampling/internal/cache"
	"specsampling/internal/obs"
	"specsampling/internal/pinball"
	"specsampling/internal/program"
	"specsampling/internal/sched"
	"specsampling/internal/selector"
	"specsampling/internal/simpoint"
	"specsampling/internal/store"
	"specsampling/internal/timing"
	"specsampling/internal/workload"
)

// Config parameterises an analysis. The zero value (plus a Scale) is safe:
// Normalize resolves every unset knob to the paper's defaults, so
//
//	Config{Scale: workload.ScaleSmall}
//
// is equivalent to DefaultConfig(workload.ScaleSmall).
//
// Region selection is pluggable (see internal/selector): Selector names the
// backend, and each backend's knobs live in its own zero-value-safe block
// rather than as flat fields here, so adding a backend never disturbs the
// others' configuration.
type Config struct {
	// Scale selects the workload scale (see workload.Scale).
	Scale workload.Scale
	// SliceLen overrides the scale's slice length when non-zero.
	SliceLen uint64
	// Selector names the region-selection backend; empty uses
	// selector.DefaultName ("simpoint", the paper's pipeline).
	Selector string
	// Seed drives projection/clustering/sampling; 0 uses
	// simpoint.DefaultSeed.
	Seed uint64
	// Workers bounds parallel pinball replay and clustering; <= 0 uses
	// GOMAXPROCS (resolved at the point of use via sched.Workers, so a
	// Config is portable across machines).
	Workers int
	// SimPoint configures the "simpoint" backend (MaxK, BIC threshold).
	SimPoint selector.SimPointConfig
	// Stratified configures the "stratified" backend.
	Stratified selector.StratifiedConfig
	// RankedSet configures the "rankedset" backend.
	RankedSet selector.RankedSetConfig
}

// DefaultConfig returns the paper's configuration at the given scale:
// SimPoint selection at MaxK 35 with the scale's 30 M-equivalent slice
// length.
func DefaultConfig(scale workload.Scale) Config {
	return Config{Scale: scale}.Normalize()
}

// Normalize resolves zero values to the pipeline defaults declared in
// packages simpoint and selector. It is idempotent, and every entry point
// calls it, so callers may pass sparse configs. SliceLen stays zero here —
// it is a per-call override of the scale's slice length, resolved by
// sliceLen().
func (c Config) Normalize() Config {
	if c.Selector == "" {
		c.Selector = selector.DefaultName
	}
	if c.Seed == 0 {
		c.Seed = simpoint.DefaultSeed
	}
	c.SimPoint = c.SimPoint.Normalize()
	c.Stratified = c.Stratified.Normalize()
	c.RankedSet = c.RankedSet.Normalize()
	return c
}

func (c Config) sliceLen() uint64 {
	if c.SliceLen != 0 {
		return c.SliceLen
	}
	return c.Scale.SliceLen
}

// selectorConfig lowers this Config to the backend-independent selection
// config handed to the Selector interface.
func (c Config) selectorConfig() selector.Config {
	c = c.Normalize()
	return selector.Config{
		SliceLen:   c.sliceLen(),
		Seed:       c.Seed,
		Workers:    c.Workers,
		SimPoint:   c.SimPoint,
		Stratified: c.Stratified,
		RankedSet:  c.RankedSet,
	}.Normalize()
}

// selectorFor resolves the configured backend.
func (c Config) selectorFor() (selector.Selector, error) {
	return selector.ByName(c.Normalize().Selector)
}

// profileArtifact is the persisted form of the profile stage's
// checkpoints: the slices, written with nil BBVs so that a warm job that
// only cuts pinballs decodes no vectors, and the whole-run instruction
// count. A slice that carries a BBV still decodes into it. Each slice is
// stored in simpoint.Slice's compact binary form.
type profileArtifact struct {
	Slices      []simpoint.Slice
	TotalInstrs uint64
}

// bbvArtifact is the persisted form of the profile stage's basic-block
// vectors, one per slice in slice order, each in simpoint.BBV's sparse
// binary form. Only selection reads it (see Analysis.BBVSlices).
type bbvArtifact struct {
	BBVs []simpoint.BBV
}

// ProfileKey is the store key of the benchmark's profile stage at this
// configuration. It covers exactly the inputs the profile depends on —
// benchmark, scale (name and division) and resolved slice length — and
// deliberately excludes the worker budget and clustering knobs: profiles
// are identical for any parallelism and are shared by every clustering
// configuration.
func (c Config) ProfileKey(bench string) store.Key {
	c = c.Normalize()
	return store.Key{Kind: "profile", Bench: bench, Parts: []string{
		"scale=" + c.Scale.Name,
		fmt.Sprintf("div=%d", c.Scale.Div),
		fmt.Sprintf("slice=%d", c.sliceLen()),
	}}
}

// BBVKey is the store key of the profile stage's basic-block vectors: the
// ProfileKey under kind "bbv", since the same profiling pass produces both.
func (c Config) BBVKey(bench string) store.Key {
	k := c.ProfileKey(bench)
	k.Kind = "bbv"
	return k
}

// clusterKeyVersion salts ClusterKey. Bumped to 2 with the RegionSelector
// redesign: selection artifacts are now namespaced by backend name plus the
// backend's own KeyParts, so pre-redesign entries (which assumed the
// SimPoint knob set) can never alias the new layout.
const clusterKeyVersion = 2

// ClusterKey is the store key of the benchmark's selection stage. It
// extends ProfileKey (a selection is a function of the profile) with the
// key version salt, the backend name, and the backend's KeyParts — every
// knob that backend's Select reads. Workers is excluded — selection
// results are byte-identical for any worker count.
func (c Config) ClusterKey(bench string) store.Key {
	c = c.Normalize()
	k := c.ProfileKey(bench)
	k.Kind = "cluster"
	k.Parts = append(k.Parts,
		fmt.Sprintf("ckv=%d", clusterKeyVersion),
		"selector="+c.Selector,
	)
	// An unknown selector name still yields a well-formed (if partial) key;
	// Analyze fails fast on the same resolution error before any store use.
	if sel, err := c.selectorFor(); err == nil {
		k.Parts = append(k.Parts, sel.KeyParts(c.selectorConfig())...)
	}
	return k
}

// Analysis is one benchmark's profiled execution plus its SimPoint result.
type Analysis struct {
	// Spec is the benchmark.
	Spec workload.Spec
	// Prog is the built program.
	Prog *program.Program
	// Config echoes the analysis configuration.
	Config Config
	// Slices are the profiled slices (with per-slice checkpoints).
	Slices []simpoint.Slice
	// TotalInstrs is the measured whole-run instruction count.
	TotalInstrs uint64
	// Result is the configured selector's region selection.
	Result *simpoint.Result

	// st is the store the analysis was read from; BBVSlices loads the
	// vectors from it when Slices were served without them.
	st *store.Store
	// bbvs caches BBVSlices' one successful load.
	bbvs sched.Group[struct{}, []simpoint.Slice]
}

// Analyze builds the benchmark at the configured scale, profiles it, and
// clusters it. This is the expensive pass; everything downstream reuses it.
// ctx carries the tracing span tree and cancellation.
func Analyze(ctx context.Context, spec workload.Spec, cfg Config) (*Analysis, error) {
	return AnalyzeStored(ctx, spec, cfg, nil)
}

// AnalyzeStored is Analyze backed by a persistent artifact store: the
// profile and clustering stages are looked up in st before being computed,
// and computed results are persisted for the next process. A nil store
// degrades to plain Analyze. Stage results served from disk are
// byte-identical to recomputation (float64s round-trip bit-exactly), so a
// resumed run reports the same numbers as a cold one.
func AnalyzeStored(ctx context.Context, spec workload.Spec, cfg Config, st *store.Store) (*Analysis, error) {
	cfg = cfg.Normalize()
	ctx, span := obs.Start(ctx, "analyze",
		obs.String("bench", spec.Name), obs.String("scale", cfg.Scale.Name))
	defer span.End()

	_, bspan := obs.Start(ctx, "build")
	prog, err := spec.Build(cfg.Scale)
	bspan.End()
	if err != nil {
		return nil, err
	}
	return analyzeProgram(ctx, spec, prog, cfg, st)
}

// analyzeProgram is AnalyzeStored's profile+cluster pass, run under its
// "analyze" span. Each stage goes disk store → compute (the in-memory
// singleflight layer is the caller's, e.g. experiments.Runner); computed
// stages are persisted even when the run is being cancelled, so an
// interrupted suite resumes from the last completed stage rather than the
// last completed benchmark. A profile hit serves the checkpoints alone;
// the basic-block vectors are read only if the cluster stage misses and
// must select.
func analyzeProgram(ctx context.Context, spec workload.Spec, prog *program.Program, cfg Config, st *store.Store) (*Analysis, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sel, err := cfg.selectorFor()
	if err != nil {
		return nil, err
	}
	scfg := cfg.selectorConfig()

	a := &Analysis{Spec: spec, Prog: prog, Config: cfg, st: st}
	var prof profileArtifact
	if st.Get(ctx, cfg.ProfileKey(spec.Name), &prof) {
		a.Slices, a.TotalInstrs = prof.Slices, prof.TotalInstrs
	} else if a.Slices, a.TotalInstrs, err = a.profile(ctx); err != nil {
		return nil, err
	}
	// The profile was persisted before this check: a failed cache write
	// must not fail the pipeline, and a completed stage should survive an
	// interrupt that arrives while it is being written.
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	ckey := cfg.ClusterKey(spec.Name)
	var stored simpoint.Result
	if st.Get(ctx, ckey, &stored) {
		// The stored config echoes whatever run wrote the artifact; restate
		// this call's config (the only field that may differ is the
		// non-semantic worker budget, which is excluded from the key).
		stored.Config = sel.EchoConfig(scfg)
		a.Result = &stored
		return a, nil
	}
	slices, err := a.BBVSlices(ctx)
	if err != nil {
		return nil, err
	}
	cctx, cspan := obs.Start(ctx, "cluster", obs.String("selector", sel.Name()))
	a.Result, err = sel.Select(cctx, prog.Name, slices, a.TotalInstrs, scfg)
	if err != nil {
		cspan.End()
		return nil, fmt.Errorf("core: select %s: %w", spec.Name, err)
	}
	cspan.Annotate(obs.Int("k", a.Result.NumPoints()))
	cspan.End()
	_ = st.Put(ctx, ckey, a.Result)
	return a, nil
}

// profile runs the profile stage under a "profile" span and persists its
// two artifacts, the checkpoints and the vectors, to a.st. It returns the
// slices with their BBVs. With no store nothing is copied.
func (a *Analysis) profile(ctx context.Context) ([]simpoint.Slice, uint64, error) {
	sliceLen := a.Config.selectorConfig().SliceLen
	_, span := obs.Start(ctx, "profile", obs.Uint64("slice_len", sliceLen))
	slices, total, err := simpoint.Profile(a.Prog, sliceLen)
	if err != nil {
		span.End()
		return nil, 0, fmt.Errorf("core: profile %s: %w", a.Spec.Name, err)
	}
	span.Annotate(obs.Int("slices", len(slices)), obs.Uint64("instrs", total))
	span.End()
	if a.st != nil {
		checkpoints := make([]simpoint.Slice, len(slices))
		vectors := make([]simpoint.BBV, len(slices))
		for i, s := range slices {
			vectors[i] = s.BBV
			s.BBV = nil
			checkpoints[i] = s
		}
		_ = a.st.Put(ctx, a.Config.ProfileKey(a.Spec.Name), profileArtifact{Slices: checkpoints, TotalInstrs: total})
		_ = a.st.Put(ctx, a.Config.BBVKey(a.Spec.Name), bbvArtifact{BBVs: vectors})
	}
	return slices, total, nil
}

// BBVSlices returns the profiled slices with their basic-block vectors, the
// input of selection. When Slices already carry them (a cold analysis, a
// nil store, a profile read from an entry that holds them) it returns
// Slices as they are. Otherwise it loads the vectors once from the store's
// bbv artifact; if that entry is missing or corrupt it re-runs the
// deterministic profile and puts both artifacts back. The result is a new
// slice header over copies of Slices, so Slices itself never changes and
// concurrent readers of it need no lock; concurrent callers share one load,
// and a failed load is retried by the next call.
func (a *Analysis) BBVSlices(ctx context.Context) ([]simpoint.Slice, error) {
	if len(a.Slices) == 0 || a.Slices[0].BBV != nil {
		return a.Slices, nil
	}
	return a.bbvs.Do(ctx, struct{}{}, func() ([]simpoint.Slice, error) {
		var art bbvArtifact
		if a.st.Get(ctx, a.Config.BBVKey(a.Spec.Name), &art) && len(art.BBVs) == len(a.Slices) {
			slices := append([]simpoint.Slice(nil), a.Slices...)
			for i := range slices {
				slices[i].BBV = art.BBVs[i]
			}
			return slices, nil
		}
		slices, _, err := a.profile(ctx)
		return slices, err
	})
}

// CacheConfig returns the paper's Table I allcache hierarchy scaled to this
// analysis's workload scale.
func (a *Analysis) CacheConfig() cache.HierarchyConfig {
	return cache.ScaledHierarchy(cache.TableIConfig(), a.Config.Scale.CacheDivs)
}

// TimingConfig returns the paper's Table III Sniper machine scaled to this
// analysis's workload scale.
func (a *Analysis) TimingConfig() timing.Config {
	return timing.ScaledConfig(timing.TableIIIConfig(), a.Config.Scale.CacheDivs)
}

// SelectWith re-runs region selection on the profiled slices under a
// different configuration — another backend, seed, or knob block — without
// re-profiling. The shoot-out harness leans on this: one profile, every
// selector.
func (a *Analysis) SelectWith(ctx context.Context, cfg Config) (*simpoint.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg = cfg.Normalize()
	sel, err := cfg.selectorFor()
	if err != nil {
		return nil, err
	}
	slices, err := a.BBVSlices(ctx)
	if err != nil {
		return nil, err
	}
	ctx, span := obs.Start(ctx, "cluster",
		obs.String("bench", a.Prog.Name), obs.String("selector", sel.Name()))
	defer span.End()
	return sel.Select(ctx, a.Prog.Name, slices, a.TotalInstrs, cfg.selectorConfig())
}

// Recluster re-runs the selection step of an existing analysis with a
// different MaxK (the Figure 3(a) sweep) without re-profiling. The MaxK
// knob belongs to the SimPoint block; other backends re-run unchanged.
func (a *Analysis) Recluster(ctx context.Context, maxK int) (*simpoint.Result, error) {
	cfg := a.Config
	cfg.SimPoint.MaxK = maxK
	return a.SelectWith(ctx, cfg)
}

// VarianceSweep re-clusters the profiled slices at fixed k values and
// returns the average within-cluster variance per k (Figure 4). The sweep
// is a k-means property, so it always runs the SimPoint parameterisation
// regardless of the configured selector.
func (a *Analysis) VarianceSweep(ctx context.Context, ks []int) (map[int]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	slices, err := a.BBVSlices(ctx)
	if err != nil {
		return nil, err
	}
	_, span := obs.Start(ctx, "variance_sweep",
		obs.String("bench", a.Prog.Name), obs.Int("ks", len(ks)))
	defer span.End()
	return simpoint.VarianceSweep(slices, ks, selector.SimPointParams(a.Config.selectorConfig()))
}

// WholePinball returns the whole-execution checkpoint, sized to the
// measured whole-run instruction count so its replay reaches program end.
func (a *Analysis) WholePinball() *pinball.Pinball {
	return pinball.NewWhole(a.Prog, a.Config.Scale.Name, a.TotalInstrs)
}

// Pinballs cuts regional pinballs for the given SimPoint result (either
// a.Result or a reduced/re-clustered variant). warmupSlices > 0 attaches a
// warm-up checkpoint that many slices before each region — the paper's
// cache-warming mitigation. Warm-up never crosses the program start.
func (a *Analysis) Pinballs(res *simpoint.Result, warmupSlices int) ([]*pinball.Pinball, error) {
	if res == nil {
		return nil, fmt.Errorf("core: nil simpoint result")
	}
	pbs := make([]*pinball.Pinball, 0, len(res.Points))
	for i, pt := range res.Points {
		pb := pinball.NewRegional(a.Prog.Name, a.Config.Scale.Name, i, pt.Start, pt.Len, pt.Weight)
		if warmupSlices > 0 {
			j := pt.SliceIndex - warmupSlices
			if j < 0 {
				j = 0
			}
			if j < pt.SliceIndex {
				warmStart := a.Slices[j].Start
				pb.WithWarmup(warmStart, pt.Start.Instrs-warmStart.Instrs)
			}
		}
		if err := pb.Validate(); err != nil {
			return nil, fmt.Errorf("core: point %d: %w", i, err)
		}
		pbs = append(pbs, pb)
	}
	return pbs, nil
}
