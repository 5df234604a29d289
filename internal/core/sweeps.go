package core

import (
	"context"
	"fmt"
	"time"

	"specsampling/internal/cache"
	"specsampling/internal/obs"
	"specsampling/internal/pin"
	"specsampling/internal/pinball"
	"specsampling/internal/pintool"
	"specsampling/internal/simpoint"
	"specsampling/internal/workload"
)

// SweepPoint is one configuration of a sensitivity sweep (Figure 3) with
// its sampled measurements.
type SweepPoint struct {
	// Label names the configuration ("MaxK=15", "slice=25M").
	Label string
	// NumPoints is the simulation-point count the configuration produced.
	NumPoints int
	// Mix and Cache are the sampled measurements to compare against the
	// whole run.
	Mix   MixProfile
	Cache CacheProfile
}

// SweepMaxK re-clusters the analysis at each MaxK and measures instruction
// mix and cache miss rates through the resulting simulation points — the
// paper's Figure 3(a) sensitivity study.
func (a *Analysis) SweepMaxK(ctx context.Context, maxKs []int, hier cache.HierarchyConfig) ([]SweepPoint, error) {
	out := make([]SweepPoint, 0, len(maxKs))
	for _, k := range maxKs {
		res, err := a.Recluster(ctx, k)
		if err != nil {
			return nil, fmt.Errorf("core: MaxK=%d: %w", k, err)
		}
		pt, err := a.measure(ctx, res, fmt.Sprintf("MaxK=%d", k), hier)
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}

// SweepSliceSize re-profiles the benchmark at each slice length and
// measures mix and miss rates through the resulting simulation points —
// the paper's Figure 3(b) study. Slice lengths are given in paper-scale
// instructions (15 M, 25 M, ...) and converted through the analysis scale.
func SweepSliceSize(ctx context.Context, spec workload.Spec, cfg Config, paperSizes []uint64, hier cache.HierarchyConfig) ([]SweepPoint, error) {
	out := make([]SweepPoint, 0, len(paperSizes))
	for _, paper := range paperSizes {
		sub := cfg
		sub.SliceLen = cfg.Scale.SliceLenForPaperSize(paper)
		an, err := Analyze(ctx, spec, sub)
		if err != nil {
			return nil, fmt.Errorf("core: slice %dM: %w", paper/1_000_000, err)
		}
		pt, err := an.measure(ctx, an.Result, fmt.Sprintf("slice=%dM", paper/1_000_000), hier)
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}

// measure cuts pinballs for a result and collects mix + cache profiles in
// one measurement pass.
func (a *Analysis) measure(ctx context.Context, res *simpoint.Result, label string, hier cache.HierarchyConfig) (SweepPoint, error) {
	pbs, err := a.Pinballs(res, 0)
	if err != nil {
		return SweepPoint{}, err
	}
	m, err := a.Measure(ctx, pbs, Tools{Mix: true, Cache: &hier})
	if err != nil {
		return SweepPoint{}, err
	}
	return SweepPoint{Label: label, NumPoints: res.NumPoints(), Mix: m.Mix(), Cache: m.Cache()}, nil
}

// RunComparison is the Figure 5 measurement: dynamic instruction counts and
// execution times of Whole, Regional and Reduced Regional runs. Times are
// serial replay wall-clock, the fastest of repeated runs (the paper's
// per-benchmark execution times; it notes pinballs *can* run in parallel,
// but reports aggregate time).
type RunComparison struct {
	WholeInstrs    uint64
	RegionalInstrs uint64
	ReducedInstrs  uint64

	WholeTime    time.Duration
	RegionalTime time.Duration
	ReducedTime  time.Duration

	NumPoints   int
	NumPoints90 int
}

// InstrReduction returns whole/regional and whole/reduced instruction
// ratios (the paper's ~650x and ~1225x).
func (rc RunComparison) InstrReduction() (regional, reduced float64) {
	if rc.RegionalInstrs > 0 {
		regional = float64(rc.WholeInstrs) / float64(rc.RegionalInstrs)
	}
	if rc.ReducedInstrs > 0 {
		reduced = float64(rc.WholeInstrs) / float64(rc.ReducedInstrs)
	}
	return regional, reduced
}

// TimeReduction returns whole/regional and whole/reduced time ratios (the
// paper's ~750x and ~1297x).
func (rc RunComparison) TimeReduction() (regional, reduced float64) {
	if rc.RegionalTime > 0 {
		regional = float64(rc.WholeTime) / float64(rc.RegionalTime)
	}
	if rc.ReducedTime > 0 {
		reduced = float64(rc.WholeTime) / float64(rc.ReducedTime)
	}
	return regional, reduced
}

// CompareRuns executes whole, regional and reduced-regional runs with the
// inscount Pintool and measures instructions and serial wall-clock time,
// each time the fastest of timeReps repetitions.
func (a *Analysis) CompareRuns(ctx context.Context, percentile float64) (RunComparison, error) {
	_, span := obs.Start(ctx, "compare_runs",
		obs.String("bench", a.Prog.Name), obs.Float("percentile", percentile))
	defer span.End()
	var rc RunComparison
	rc.NumPoints = a.Result.NumPoints()

	reduced, err := a.Result.Reduce(percentile)
	if err != nil {
		return rc, err
	}
	rc.NumPoints90 = reduced.NumPoints()

	rc.WholeInstrs, rc.WholeTime, err = minTime(func() (uint64, error) {
		engine := pin.NewEngine(a.Prog)
		if err := engine.Attach(pintool.NewInsCount()); err != nil {
			return 0, err
		}
		return engine.RunToEnd(), nil
	})
	if err != nil {
		return rc, err
	}

	replaySerial := func(res *simpoint.Result) (uint64, time.Duration, error) {
		pbs, err := a.Pinballs(res, 0)
		if err != nil {
			return 0, 0, err
		}
		return minTime(func() (uint64, error) {
			var instrs uint64
			for _, pb := range pbs {
				if err := ctx.Err(); err != nil {
					return 0, err
				}
				n, err := pinball.Replay(a.Prog, pb, pintool.NewInsCount())
				if err != nil {
					return 0, err
				}
				instrs += n
			}
			return instrs, nil
		})
	}

	if rc.RegionalInstrs, rc.RegionalTime, err = replaySerial(a.Result); err != nil {
		return rc, err
	}
	if rc.ReducedInstrs, rc.ReducedTime, err = replaySerial(reduced); err != nil {
		return rc, err
	}
	return rc, nil
}

// timeReps is how many times CompareRuns repeats each timed run.
const timeReps = 3

// minTime runs the deterministic run timeReps times and returns its
// instruction count with the shortest wall-clock time. At small scale a
// regional replay takes well under a millisecond, so a single preemption or
// GC pause inside one timed interval can invert the whole/regional ratio;
// the minimum discards such stalls, and taking it on every side keeps the
// ratios unbiased.
func minTime(run func() (uint64, error)) (n uint64, best time.Duration, err error) {
	for i := 0; i < timeReps; i++ {
		start := time.Now()
		if n, err = run(); err != nil {
			return 0, 0, err
		}
		if d := time.Since(start); i == 0 || d < best {
			best = d
		}
	}
	return n, best, nil
}

// PercentilePoint is one entry of the Figure 9 sweep.
type PercentilePoint struct {
	// Percentile is the cumulative-weight cutoff (1.0 = Regional Run,
	// 0.9 = Reduced Regional Run, ...).
	Percentile float64
	// NumPoints is the surviving simulation-point count.
	NumPoints int
	// Mix and Cache are the sampled measurements.
	Mix   MixProfile
	Cache CacheProfile
	// ReplayTime is the serial replay wall-clock.
	ReplayTime time.Duration
}

// PercentileSweep reduces the analysis result at each percentile and
// measures mix, miss rates and replay time — the paper's Figure 9
// accuracy-vs-runtime trade-off. Each percentile is replayed rather than
// re-weighted from the full measurement, because its replay time is part of
// the result.
func (a *Analysis) PercentileSweep(ctx context.Context, percentiles []float64, hier cache.HierarchyConfig) ([]PercentilePoint, error) {
	out := make([]PercentilePoint, 0, len(percentiles))
	for _, pct := range percentiles {
		res, err := a.Result.Reduce(pct)
		if err != nil {
			return nil, err
		}
		pbs, err := a.Pinballs(res, 0)
		if err != nil {
			return nil, err
		}
		begin := time.Now()
		m, err := a.Measure(ctx, pbs, Tools{Mix: true, Cache: &hier})
		if err != nil {
			return nil, err
		}
		out = append(out, PercentilePoint{
			Percentile: pct,
			NumPoints:  res.NumPoints(),
			Mix:        m.Mix(),
			Cache:      m.Cache(),
			ReplayTime: time.Since(begin),
		})
	}
	return out, nil
}
