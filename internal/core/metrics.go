package core

import (
	"context"
	"fmt"
	"slices"

	"specsampling/internal/cache"
	"specsampling/internal/obs"
	"specsampling/internal/pin"
	"specsampling/internal/pinball"
	"specsampling/internal/pintool"
	"specsampling/internal/simpoint"
	"specsampling/internal/stats"
	"specsampling/internal/store"
	"specsampling/internal/timing"
)

// cacheAccessCounter totals cache-hierarchy accesses observed by the
// measurement paths, batched per hierarchy where stats are already read.
var cacheAccessCounter = obs.GetCounter("cache.accesses")

// MixProfile is an instruction-distribution measurement in ldstmix order
// (NO_MEM, MEM_R, MEM_W, MEM_RW).
type MixProfile struct {
	// Fractions are the per-category shares (sum to 1).
	Fractions [4]float64
	// Instrs is the measured instruction count (the raw, unweighted total
	// for sampled runs — the quantity of Figure 5(a)).
	Instrs uint64
}

// CacheProfile is a cache-hierarchy measurement at the Table I
// configuration (or any hierarchy the caller passes).
type CacheProfile struct {
	// L1D, L2, L3 and L1I are the per-level miss rates. Sampled runs report
	// the weighted average of per-region rates, following the paper's
	// methodology (Section IV-D: weighted averages of
	// instruction-normalised statistics).
	L1D, L2, L3, L1I float64
	// L3Accesses is the raw number of L3 accesses (unweighted total) — the
	// quantity of Figure 10, which shrinks with sampling.
	L3Accesses uint64
	// Instrs is the measured instruction count.
	Instrs uint64
}

// CPIProfile is a timing measurement.
type CPIProfile struct {
	// CPI is cycles per instruction (weight-averaged for sampled runs; the
	// paper notes CPI may be weight-averaged, IPC may not).
	CPI float64
	// Cycles and Instrs are raw totals.
	Cycles float64
	Instrs uint64
}

// Tools is the tool set one measurement pass attaches to each region's
// engine — PinPlay's one replay feeding several Pintools. Any subset may be
// requested; the tools share no state, so measuring them together is
// bit-identical to measuring each alone.
type Tools struct {
	// Mix attaches the ldstmix Pintool.
	Mix bool
	// Cache, when set, attaches allcache over a hierarchy of this shape.
	Cache *cache.HierarchyConfig
	// CPI, when set, attaches a Sniper-style timing core of this shape.
	CPI *timing.Config
}

// Region is one region's raw measurement: each requested tool's profile of
// that region alone, plus the coordinates the aggregation needs. Tools that
// were not requested leave their profile zero.
type Region struct {
	// Start is the region's first instruction (unique within one slicing,
	// so it identifies the region when a reduced selection is re-weighted).
	Start uint64
	// Weight is the region's weight in the aggregate (1 for a whole run).
	Weight float64
	Mix    MixProfile
	Cache  CacheProfile
	CPI    CPIProfile
}

// Measurement is one measurement pass: every region's raw result, in
// replay order. Its Mix, Cache and CPI methods aggregate the regions —
// weight-averaged rates, summed counts — so a whole run, measured as one
// region of weight 1, reports its own profile unchanged.
type Measurement struct {
	Regions []Region
}

// probe is one region's private tool set.
type probe struct {
	mix   *pintool.LdStMix
	cache *pintool.AllCache
	core  *timing.Core
	tools []pin.Tool
}

// probe builds a fresh tool set (tools are stateful and belong to one
// region).
func (t Tools) probe() (*probe, error) {
	p := &probe{}
	if t.Mix {
		p.mix = pintool.NewLdStMix()
		p.tools = append(p.tools, p.mix)
	}
	if t.Cache != nil {
		h, err := cache.NewHierarchy(*t.Cache)
		if err != nil {
			return nil, err
		}
		p.cache = pintool.NewAllCache(h)
		p.tools = append(p.tools, p.cache)
	}
	if t.CPI != nil {
		c, err := timing.NewCore(*t.CPI)
		if err != nil {
			return nil, err
		}
		p.core = c
		p.tools = append(p.tools, c)
	}
	if len(p.tools) == 0 {
		return nil, fmt.Errorf("core: no tools requested")
	}
	return p, nil
}

// region reads the probe's tools after a run of n measured instructions.
func (p *probe) region(start uint64, weight float64, n uint64) Region {
	r := Region{Start: start, Weight: weight}
	if p.mix != nil {
		r.Mix = MixProfile{Fractions: p.mix.Fractions(), Instrs: n}
	}
	if p.cache != nil {
		h := p.cache.H
		cacheAccessCounter.Add(int64(h.L1D.Stats().Accesses + h.L1I.Stats().Accesses +
			h.L2.Stats().Accesses + h.L3.Stats().Accesses))
		l1d, l2, l3 := h.MissRates()
		r.Cache = CacheProfile{
			L1D: l1d, L2: l2, L3: l3, L1I: h.L1I.Stats().MissRate(),
			L3Accesses: h.L3.Stats().Accesses,
			Instrs:     n,
		}
	}
	if p.core != nil {
		c := p.core.Counters()
		r.CPI = CPIProfile{CPI: c.CPI(), Cycles: c.Cycles, Instrs: c.Instructions}
	}
	return r
}

// MeasureWhole runs the whole program once with every requested tool
// attached — the Whole run of every figure, as one region of weight 1.
func (a *Analysis) MeasureWhole(ctx context.Context, tools Tools) (Measurement, error) {
	_, span := obs.Start(ctx, "whole", obs.String("bench", a.Prog.Name))
	defer span.End()
	p, err := tools.probe()
	if err != nil {
		return Measurement{}, err
	}
	engine := pin.NewEngine(a.Prog)
	for _, t := range p.tools {
		if err := engine.Attach(t); err != nil {
			return Measurement{}, err
		}
	}
	n := engine.RunToEnd()
	return Measurement{Regions: []Region{p.region(0, 1, n)}}, nil
}

// Measure replays regional pinballs (in parallel) once each, with every
// requested tool attached to the one engine, and keeps each region's raw
// result. Pinballs carrying warm-up checkpoints warm their tools first (the
// "Warmup Regional Run" of Figure 8).
//
// With a store, the warmed tool states are live-points (see warm.go): the
// first run stores them, captured in the measuring replay itself, and a
// later run with the same pinballs and tools restores them and replays
// only the measured regions. The result is bit-identical either way. A
// missing, corrupt or mismatched entry is recomputed and put back.
func (a *Analysis) Measure(ctx context.Context, pbs []*pinball.Pinball, tools Tools) (Measurement, error) {
	return a.measureRegions(ctx, pbs, tools, 0)
}

// measureRegions is Measure with prewarm extra replays of each region
// against its cache hierarchy, statistics suppressed, before the measured
// replay (SampledCacheRepeated's mitigation; 0 for plain measurement).
// Pre-warmed measurements bypass the live-points: their state depends on
// the region's own replays too.
func (a *Analysis) measureRegions(ctx context.Context, pbs []*pinball.Pinball, tools Tools, prewarm int) (Measurement, error) {
	if len(pbs) == 0 {
		return Measurement{}, fmt.Errorf("core: no pinballs")
	}
	job := pinball.SuiteJob{Program: a.Prog, Pinballs: pbs}
	var probes []*probe
	var key store.Key
	var captured []warmState // set when live-points are to be stored
	warmable := tools.Cache != nil || tools.CPI != nil
	warms := slices.ContainsFunc(pbs, func(pb *pinball.Pinball) bool { return pb.HasWarmup })
	if prewarm == 0 && a.st != nil && warmable && warms {
		key = a.warmKey(pbs, tools)
		art := warmArtifact{pbs: pbs, tools: tools}
		if a.st.Get(ctx, key, &art) {
			probes = art.probes
			job.Pinballs = make([]*pinball.Pinball, len(pbs))
			for i, pb := range pbs {
				job.Pinballs[i] = stripWarmup(pb)
			}
		} else {
			captured = make([]warmState, len(pbs))
			job.Warmed = func(i int) { captured[i] = probes[i].warmState() }
		}
	}
	if probes == nil {
		probes = make([]*probe, len(pbs))
		for i := range probes {
			var err error
			if probes[i], err = tools.probe(); err != nil {
				return Measurement{}, err
			}
		}
	}
	job.MakeTools = func(i int) []pin.Tool {
		p := probes[i]
		for r := 0; r < prewarm; r++ {
			p.cache.H.SetWarmup(true)
			_, err := pinball.Replay(a.Prog, stripWarmup(pbs[i]), p.cache)
			p.cache.H.SetWarmup(false)
			if err != nil {
				break // the measured replay fails the same way and reports it
			}
		}
		return p.tools
	}
	results := pinball.ReplayAll(ctx, job, a.Config.Workers)
	m := Measurement{Regions: make([]Region, len(pbs))}
	for i, r := range results {
		if r.Err != nil {
			return Measurement{}, fmt.Errorf("core: replay %d: %w", i, r.Err)
		}
		m.Regions[i] = probes[i].region(pbs[i].Start.Instrs, pbs[i].Weight, r.Executed)
	}
	if captured != nil {
		_ = a.st.Put(ctx, key, warmArtifact{states: captured}) // a failed cache write must not fail the run
	}
	return m, nil
}

// stripWarmup returns a copy of the pinball without its warm-up checkpoint,
// so pre-warm replays cover exactly the region.
func stripWarmup(pb *pinball.Pinball) *pinball.Pinball {
	out := *pb
	out.HasWarmup = false
	out.WarmupLen = 0
	return &out
}

// Reweight serves another selection over the same regions from this
// measurement, without replaying anything: it walks res.Points in their own
// order, takes each point's stored region (matched by its start) and gives
// it the point's weight. For the points of Result.Reduce this equals
// measuring a.Pinballs(reduced, w) with the same tools and warm-up w, bit
// for bit, because every region's replay is independent of the others.
func (m Measurement) Reweight(res *simpoint.Result) (Measurement, error) {
	byStart := make(map[uint64]int, len(m.Regions))
	for i, r := range m.Regions {
		byStart[r.Start] = i
	}
	out := Measurement{Regions: make([]Region, len(res.Points))}
	for j, pt := range res.Points {
		i, ok := byStart[pt.Start.Instrs]
		if !ok {
			return Measurement{}, fmt.Errorf("core: point at instruction %d was not measured", pt.Start.Instrs)
		}
		out.Regions[j] = m.Regions[i]
		out.Regions[j].Weight = pt.Weight
	}
	return out, nil
}

// mean weight-averages one per-region statistic.
func (m Measurement) mean(stat func(r *Region) float64) float64 {
	values := make([]float64, len(m.Regions))
	weights := make([]float64, len(m.Regions))
	for i := range m.Regions {
		values[i] = stat(&m.Regions[i])
		weights[i] = m.Regions[i].Weight
	}
	return stats.WeightedMean(values, weights)
}

// Mix aggregates the instruction mix.
func (m Measurement) Mix() MixProfile {
	var out MixProfile
	for c := range out.Fractions {
		out.Fractions[c] = m.mean(func(r *Region) float64 { return r.Mix.Fractions[c] })
	}
	for _, r := range m.Regions {
		out.Instrs += r.Mix.Instrs
	}
	return out
}

// Cache aggregates the cache profile.
func (m Measurement) Cache() CacheProfile {
	out := CacheProfile{
		L1D: m.mean(func(r *Region) float64 { return r.Cache.L1D }),
		L2:  m.mean(func(r *Region) float64 { return r.Cache.L2 }),
		L3:  m.mean(func(r *Region) float64 { return r.Cache.L3 }),
		L1I: m.mean(func(r *Region) float64 { return r.Cache.L1I }),
	}
	for _, r := range m.Regions {
		out.L3Accesses += r.Cache.L3Accesses
		out.Instrs += r.Cache.Instrs
	}
	return out
}

// CPI aggregates the timing profile.
func (m Measurement) CPI() CPIProfile {
	out := CPIProfile{CPI: m.mean(func(r *Region) float64 { return r.CPI.CPI })}
	for _, r := range m.Regions {
		out.Cycles += r.CPI.Cycles
		out.Instrs += r.CPI.Instrs
	}
	return out
}

// WholeCache replays the whole program through a cache hierarchy.
func (a *Analysis) WholeCache(ctx context.Context, cfg cache.HierarchyConfig) (CacheProfile, error) {
	m, err := a.MeasureWhole(ctx, Tools{Cache: &cfg})
	return m.Cache(), err
}

// WholeCPI runs the whole program on the given timing machine.
func (a *Analysis) WholeCPI(ctx context.Context, cfg timing.Config) (CPIProfile, error) {
	m, err := a.MeasureWhole(ctx, Tools{CPI: &cfg})
	return m.CPI(), err
}

// SampledCache replays regional pinballs through private cache hierarchies
// and weight-averages the per-region miss rates.
func (a *Analysis) SampledCache(ctx context.Context, pbs []*pinball.Pinball, cfg cache.HierarchyConfig) (CacheProfile, error) {
	m, err := a.Measure(ctx, pbs, Tools{Cache: &cfg})
	return m.Cache(), err
}

// SampledCPI replays regional pinballs on private timing cores and
// weight-averages their CPIs.
func (a *Analysis) SampledCPI(ctx context.Context, pbs []*pinball.Pinball, cfg timing.Config) (CPIProfile, error) {
	m, err := a.Measure(ctx, pbs, Tools{CPI: &cfg})
	return m.CPI(), err
}

// SampledCacheRepeated implements the paper's other cold-cache mitigation
// (Section IV-D): each regional pinball is replayed `rounds` times against
// the same hierarchy, exercising the LLC, and only the final replay is
// measured. rounds = 1 equals SampledCache.
func (a *Analysis) SampledCacheRepeated(ctx context.Context, pbs []*pinball.Pinball, cfg cache.HierarchyConfig, rounds int) (CacheProfile, error) {
	if rounds < 1 {
		return CacheProfile{}, fmt.Errorf("core: rounds = %d", rounds)
	}
	m, err := a.measureRegions(ctx, pbs, Tools{Cache: &cfg}, rounds-1)
	return m.Cache(), err
}
