package experiments

import (
	"context"
	"fmt"
	"sort"
	"time"

	"specsampling/internal/core"
	"specsampling/internal/stats"
	"specsampling/internal/textplot"
	"specsampling/internal/workload"
)

// DefaultWarmupSlices is the warm-up length (in slices) of the Warmup
// Regional Run — the scaled counterpart of the paper's 500 M warm-up cycles
// before each 30 M-instruction simulation point (~16 slices' worth of
// execution).
const DefaultWarmupSlices = 16

// ---------------------------------------------------------------- Fig 3 --

// SweepResult is the Figure 3 sensitivity study: the whole-run reference
// plus one sampled measurement per swept configuration.
type SweepResult struct {
	Benchmark string
	Whole     struct {
		Mix   core.MixProfile
		Cache core.CacheProfile
	}
	Points []core.SweepPoint
}

// Fig3a sweeps MaxK for one benchmark (the paper shows xalancbmk_s) at
// values 15..35 and compares instruction mix and cache miss rates against
// the full run. Passing nil maxKs uses the paper's {15, 20, 25, 30, 35}.
func (r *Runner) Fig3a(ctx context.Context, bench string, maxKs []int) (*SweepResult, error) {
	if maxKs == nil {
		maxKs = []int{15, 20, 25, 30, 35}
	}
	spec, err := workload.ByName(bench)
	if err != nil {
		return nil, err
	}
	an, err := r.analysis(ctx, spec)
	if err != nil {
		return nil, err
	}
	res := &SweepResult{Benchmark: spec.Name}
	w, err := r.whole(ctx, an, wholeKinds{mix: true, cache: true})
	if err != nil {
		return nil, err
	}
	res.Whole.Mix, res.Whole.Cache = w.mix, w.cache
	if res.Points, err = an.SweepMaxK(ctx, maxKs, r.CacheConfig()); err != nil {
		return nil, err
	}
	r.printSweep("Figure 3(a): MaxK sensitivity, "+spec.Name, res)
	return res, nil
}

// Fig3b sweeps the slice size for one benchmark at MaxK 35, with the
// paper's {15, 25, 30, 50, 100} M-instruction slice sizes mapped through
// the runner's scale.
func (r *Runner) Fig3b(ctx context.Context, bench string, paperSizes []uint64) (*SweepResult, error) {
	if paperSizes == nil {
		paperSizes = []uint64{15_000_000, 25_000_000, 30_000_000, 50_000_000, 100_000_000}
	}
	spec, err := workload.ByName(bench)
	if err != nil {
		return nil, err
	}
	an, err := r.analysis(ctx, spec)
	if err != nil {
		return nil, err
	}
	res := &SweepResult{Benchmark: spec.Name}
	w, err := r.whole(ctx, an, wholeKinds{mix: true, cache: true})
	if err != nil {
		return nil, err
	}
	res.Whole.Mix, res.Whole.Cache = w.mix, w.cache
	if res.Points, err = core.SweepSliceSize(ctx, spec, r.cfg, paperSizes, r.CacheConfig()); err != nil {
		return nil, err
	}
	r.printSweep("Figure 3(b): slice-size sensitivity, "+spec.Name, res)
	return res, nil
}

func (r *Runner) printSweep(title string, res *SweepResult) {
	t := textplot.NewTable("Config", "Points",
		"NO_MEM", "MEM_R", "MEM_W", "MEM_RW",
		"L1D miss", "L2 miss", "L3 miss")
	addRow := func(label string, points int, mix core.MixProfile, cp core.CacheProfile) {
		t.AddRow(label, itoa(points),
			pct(mix.Fractions[0]), pct(mix.Fractions[1]), pct(mix.Fractions[2]), pct(mix.Fractions[3]),
			pct(cp.L1D), pct(cp.L2), pct(cp.L3))
	}
	addRow("Full run", 0, res.Whole.Mix, res.Whole.Cache)
	for _, p := range res.Points {
		addRow(p.Label, p.NumPoints, p.Mix, p.Cache)
	}
	r.printf("\n== %s ==\n%s", title, t.String())
}

// ----------------------------------------------------------------- Fig 4 --

// Fig4Result maps benchmark -> cluster count -> average within-cluster
// variance.
type Fig4Result struct {
	Ks       []int
	Variance map[string]map[int]float64
}

// Fig4 measures, for every selected benchmark, the average variance in
// phase similarity per cluster as the available cluster count shrinks.
// Passing nil ks uses {5, 10, 15, 20, 25, 30, 35}.
func (r *Runner) Fig4(ctx context.Context, ks []int) (*Fig4Result, error) {
	if ks == nil {
		ks = []int{5, 10, 15, 20, 25, 30, 35}
	}
	res := &Fig4Result{Ks: ks, Variance: map[string]map[int]float64{}}
	sweeps := make([]map[int]float64, len(r.specs))
	if err := r.forEachSpec(ctx, func(i int, spec workload.Spec) error {
		an, err := r.analysis(ctx, spec)
		if err != nil {
			return err
		}
		sweeps[i], err = an.VarianceSweep(ctx, ks)
		return err
	}); err != nil {
		return nil, err
	}
	for i, spec := range r.specs {
		res.Variance[spec.Name] = sweeps[i]
	}
	header := []string{"Benchmark"}
	for _, k := range ks {
		header = append(header, fmt.Sprintf("k=%d", k))
	}
	t := textplot.NewTable(header...)
	for _, spec := range r.specs {
		row := []string{spec.Name}
		for _, k := range ks {
			row = append(row, fmt.Sprintf("%.3g", res.Variance[spec.Name][k]))
		}
		t.AddRow(row...)
	}
	r.printf("\n== Figure 4: average within-cluster variance vs cluster count ==\n%s", t.String())
	return res, nil
}

// ----------------------------------------------------------------- Fig 5 --

// Fig5Row is one benchmark's whole/regional/reduced comparison.
type Fig5Row struct {
	Benchmark  string
	Comparison core.RunComparison
}

// Fig5Result is the Figure 5 measurement with suite-level reductions.
type Fig5Result struct {
	Rows []Fig5Row
	// SuiteInstrReductionRegional is Σwhole/Σregional instructions (the
	// paper's ~650x); Reduced is Σwhole/Σreduced (~1225x).
	SuiteInstrReductionRegional float64
	SuiteInstrReductionReduced  float64
	// SuiteTimeReductionRegional / Reduced are the same ratios on measured
	// serial replay times (the paper's ~750x and ~1297x).
	SuiteTimeReductionRegional float64
	SuiteTimeReductionReduced  float64
}

// Fig5 compares dynamic instruction counts and execution times of Whole,
// Regional, and Reduced Regional runs for every selected benchmark.
func (r *Runner) Fig5(ctx context.Context) (*Fig5Result, error) {
	res := &Fig5Result{Rows: make([]Fig5Row, len(r.specs))}
	if err := r.forEachSpec(ctx, func(i int, spec workload.Spec) error {
		an, err := r.analysis(ctx, spec)
		if err != nil {
			return err
		}
		rc, err := an.CompareRuns(ctx, 0.9)
		if err != nil {
			return err
		}
		res.Rows[i] = Fig5Row{Benchmark: spec.Name, Comparison: rc}
		return nil
	}); err != nil {
		return nil, err
	}
	var wi, ri, di uint64
	var wt, rt, dt time.Duration
	for _, row := range res.Rows {
		rc := row.Comparison
		wi += rc.WholeInstrs
		ri += rc.RegionalInstrs
		di += rc.ReducedInstrs
		wt += rc.WholeTime
		rt += rc.RegionalTime
		dt += rc.ReducedTime
	}
	if ri > 0 {
		res.SuiteInstrReductionRegional = float64(wi) / float64(ri)
	}
	if di > 0 {
		res.SuiteInstrReductionReduced = float64(wi) / float64(di)
	}
	if rt > 0 {
		res.SuiteTimeReductionRegional = float64(wt) / float64(rt)
	}
	if dt > 0 {
		res.SuiteTimeReductionReduced = float64(wt) / float64(dt)
	}

	t := textplot.NewTable("Benchmark", "Whole instrs", "Regional", "Reduced",
		"Whole time", "Regional", "Reduced")
	for _, row := range res.Rows {
		rc := row.Comparison
		t.AddRow(row.Benchmark,
			itoa64(rc.WholeInstrs), itoa64(rc.RegionalInstrs), itoa64(rc.ReducedInstrs),
			rc.WholeTime.Round(time.Microsecond).String(),
			rc.RegionalTime.Round(time.Microsecond).String(),
			rc.ReducedTime.Round(time.Microsecond).String())
	}
	r.printf("\n== Figure 5: Whole vs Regional vs Reduced Regional runs ==\n%s", t.String())
	r.printf("suite instruction reduction: regional %.0fx, reduced %.0fx (paper: ~650x, ~1225x)\n",
		res.SuiteInstrReductionRegional, res.SuiteInstrReductionReduced)
	r.printf("suite time reduction:        regional %.0fx, reduced %.0fx (paper: ~750x, ~1297x)\n",
		res.SuiteTimeReductionRegional, res.SuiteTimeReductionReduced)
	return res, nil
}

// ----------------------------------------------------------------- Fig 6 --

// Fig6Row is one benchmark's simulation-point weight distribution,
// descending.
type Fig6Row struct {
	Benchmark string
	Weights   []float64
	// Count90 is the number of heaviest points reaching 0.9 cumulative
	// weight (the dashed line of Figure 6).
	Count90 int
}

// Fig6 reports the weight of each simulation point per benchmark.
func (r *Runner) Fig6(ctx context.Context) ([]Fig6Row, error) {
	rows := make([]Fig6Row, len(r.specs))
	if err := r.forEachSpec(ctx, func(i int, spec workload.Spec) error {
		an, err := r.analysis(ctx, spec)
		if err != nil {
			return err
		}
		weights := make([]float64, 0, an.Result.NumPoints())
		for _, pt := range an.Result.Points {
			weights = append(weights, pt.Weight)
		}
		sortDesc(weights)
		count90 := 0
		acc := 0.0
		for _, w := range weights {
			count90++
			acc += w
			if acc >= 0.9-1e-12 {
				break
			}
		}
		rows[i] = Fig6Row{Benchmark: spec.Name, Weights: weights, Count90: count90}
		return nil
	}); err != nil {
		return nil, err
	}
	t := textplot.NewTable("Benchmark", "Points", "90pct", "Top-1", "Top-3", "Weights (stacked)")
	for _, row := range rows {
		top1 := row.Weights[0]
		top3 := 0.0
		for i, w := range row.Weights {
			if i >= 3 {
				break
			}
			top3 += w
		}
		t.AddRow(row.Benchmark, itoa(len(row.Weights)), itoa(row.Count90),
			pct(top1), pct(top3), textplot.StackedBar(row.Weights, 40))
	}
	r.printf("\n== Figure 6: simulation-point weights ==\n%s", t.String())
	return rows, nil
}

// ----------------------------------------------------------------- Fig 7 --

// Fig7Row is one benchmark's instruction-distribution comparison.
type Fig7Row struct {
	Benchmark string
	Whole     core.MixProfile
	Regional  core.MixProfile
	Reduced   core.MixProfile
}

// Fig7Result adds the suite-average absolute errors (the paper reports
// <1 % for both sampled runs).
type Fig7Result struct {
	Rows []Fig7Row
	// AvgAbsErrRegional / Reduced are suite averages of the mean absolute
	// per-category difference, in percentage points.
	AvgAbsErrRegional float64
	AvgAbsErrReduced  float64
	// SuiteWholeMix is the instruction-weighted suite average whole-run mix
	// (the paper: 49.1 % NO_MEM, 36.7 % MEM_R, 12.9 % MEM_W).
	SuiteWholeMix [4]float64
}

// Fig7 compares instruction distributions of Whole, Regional and Reduced
// Regional runs for every selected benchmark.
func (r *Runner) Fig7(ctx context.Context) (*Fig7Result, error) {
	res := &Fig7Result{Rows: make([]Fig7Row, len(r.specs))}
	if err := r.forEachSpec(ctx, func(i int, spec workload.Spec) error {
		an, err := r.analysis(ctx, spec)
		if err != nil {
			return err
		}
		w, err := r.whole(ctx, an, wholeKinds{mix: true})
		if err != nil {
			return err
		}
		regional, reduced, err := regionalAndReduced(ctx, an, 0, core.Tools{Mix: true})
		if err != nil {
			return err
		}
		res.Rows[i] = Fig7Row{Benchmark: spec.Name, Whole: w.mix, Regional: regional.Mix(), Reduced: reduced.Mix()}
		return nil
	}); err != nil {
		return nil, err
	}
	// Suite aggregation runs serially in suite order so the floating-point
	// sums are identical for every worker count.
	var regErr, redErr float64
	var suiteMix [4]float64
	var suiteInstrs float64
	for _, row := range res.Rows {
		regErr += mixAbsErrPct(row.Regional, row.Whole)
		redErr += mixAbsErrPct(row.Reduced, row.Whole)
		w := float64(row.Whole.Instrs)
		for c := 0; c < 4; c++ {
			suiteMix[c] += row.Whole.Fractions[c] * w
		}
		suiteInstrs += w
	}
	n := float64(len(res.Rows))
	res.AvgAbsErrRegional = regErr / n
	res.AvgAbsErrReduced = redErr / n
	if suiteInstrs > 0 {
		for c := 0; c < 4; c++ {
			res.SuiteWholeMix[c] = suiteMix[c] / suiteInstrs
		}
	}

	t := textplot.NewTable("Benchmark",
		"W NO_MEM", "W MEM_R", "W MEM_W",
		"R NO_MEM", "R MEM_R", "R MEM_W",
		"90 NO_MEM", "90 MEM_R", "90 MEM_W")
	for _, row := range res.Rows {
		t.AddRow(row.Benchmark,
			pct(row.Whole.Fractions[0]), pct(row.Whole.Fractions[1]), pct(row.Whole.Fractions[2]),
			pct(row.Regional.Fractions[0]), pct(row.Regional.Fractions[1]), pct(row.Regional.Fractions[2]),
			pct(row.Reduced.Fractions[0]), pct(row.Reduced.Fractions[1]), pct(row.Reduced.Fractions[2]))
	}
	r.printf("\n== Figure 7: instruction distribution, Whole vs Regional vs Reduced ==\n%s", t.String())
	r.printf("suite whole mix: NO_MEM %s, MEM_R %s, MEM_W %s (paper: 49.1%%, 36.7%%, 12.9%%)\n",
		pct(res.SuiteWholeMix[0]), pct(res.SuiteWholeMix[1]), pct(res.SuiteWholeMix[2]))
	r.printf("avg abs mix error: regional %.3f pp, reduced %.3f pp (paper: <1%%)\n",
		res.AvgAbsErrRegional, res.AvgAbsErrReduced)
	return res, nil
}

// mixAbsErrPct is the mean absolute difference across the four categories,
// in percentage points.
func mixAbsErrPct(a, b core.MixProfile) float64 {
	var sum float64
	for c := 0; c < 4; c++ {
		d := a.Fractions[c] - b.Fractions[c]
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum / 4 * 100
}

// ------------------------------------------------------------- Fig 8/10 --

// Fig8Row is one benchmark's cache-miss-rate comparison across the four run
// types of Figure 8 (plus the L3 access counts of Figure 10).
type Fig8Row struct {
	Benchmark string
	Whole     core.CacheProfile
	Regional  core.CacheProfile
	Reduced   core.CacheProfile
	Warmup    core.CacheProfile
}

// Fig8Result adds the suite-average signed miss-rate differences the paper
// quotes (L1D +0.18 %, L2 +0.10 %, L3 +25.16 % for Regional; L3 +9.08 %
// after warm-up).
type Fig8Result struct {
	Rows []Fig8Row
	// Diffs are suite-mean signed miss-rate differences vs Whole, in
	// percentage points, keyed by run type and level.
	RegionalDiff [3]float64 // L1D, L2, L3
	ReducedDiff  [3]float64
	WarmupDiff   [3]float64
}

// Fig8 measures L1D/L2/L3 miss rates for Whole, Regional, Reduced Regional
// and Warmup Regional runs of every selected benchmark. The result is
// cached; Fig10 shares it.
func (r *Runner) Fig8(ctx context.Context) (*Fig8Result, error) {
	computed := false
	res, err := r.fig8.Do(ctx, struct{}{}, func() (*Fig8Result, error) {
		computed = true
		res := &Fig8Result{Rows: make([]Fig8Row, len(r.specs))}
		hier := r.CacheConfig()
		if err := r.forEachSpec(ctx, func(i int, spec workload.Spec) error {
			an, err := r.analysis(ctx, spec)
			if err != nil {
				return err
			}
			w, err := r.whole(ctx, an, wholeKinds{cache: true})
			if err != nil {
				return err
			}
			regional, reduced, err := regionalAndReduced(ctx, an, 0, core.Tools{Cache: &hier})
			if err != nil {
				return err
			}
			wpbs, err := an.Pinballs(an.Result, DefaultWarmupSlices)
			if err != nil {
				return err
			}
			warm, err := an.Measure(ctx, wpbs, core.Tools{Cache: &hier})
			if err != nil {
				return err
			}
			res.Rows[i] = Fig8Row{Benchmark: spec.Name, Whole: w.cache,
				Regional: regional.Cache(), Reduced: reduced.Cache(), Warmup: warm.Cache()}
			return nil
		}); err != nil {
			return nil, err
		}
		// Suite means accumulate serially in suite order so the reported
		// diffs are identical for every worker count.
		var regD, redD, warmD [3][]float64
		for _, row := range res.Rows {
			collect := func(dst *[3][]float64, cp core.CacheProfile) {
				// Signed miss-rate differences in percentage points: relative
				// differences explode when the whole-run rate is near zero.
				dst[0] = append(dst[0], (cp.L1D-row.Whole.L1D)*100)
				dst[1] = append(dst[1], (cp.L2-row.Whole.L2)*100)
				dst[2] = append(dst[2], (cp.L3-row.Whole.L3)*100)
			}
			collect(&regD, row.Regional)
			collect(&redD, row.Reduced)
			collect(&warmD, row.Warmup)
		}
		for i := 0; i < 3; i++ {
			res.RegionalDiff[i] = stats.Mean(finite(regD[i]))
			res.ReducedDiff[i] = stats.Mean(finite(redD[i]))
			res.WarmupDiff[i] = stats.Mean(finite(warmD[i]))
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	// Print only on the computing call: cached hits (e.g. Fig10 reusing the
	// measurements) stay silent, as before.
	if computed {
		r.printFig8(res)
	}
	return res, nil
}

func (r *Runner) printFig8(res *Fig8Result) {
	t := textplot.NewTable("Benchmark",
		"W L1D", "W L2", "W L3",
		"R L1D", "R L2", "R L3",
		"90 L3", "Warm L3")
	for _, row := range res.Rows {
		t.AddRow(row.Benchmark,
			pct(row.Whole.L1D), pct(row.Whole.L2), pct(row.Whole.L3),
			pct(row.Regional.L1D), pct(row.Regional.L2), pct(row.Regional.L3),
			pct(row.Reduced.L3), pct(row.Warmup.L3))
	}
	r.printf("\n== Figure 8: cache miss rates, Whole vs Regional vs Reduced vs Warmup ==\n%s", t.String())
	r.printf("avg miss-rate diff vs Whole (L1D/L2/L3): regional %+.2f/%+.2f/%+.2f pp (paper: +0.18/+0.10/+25.16)\n",
		res.RegionalDiff[0], res.RegionalDiff[1], res.RegionalDiff[2])
	r.printf("                                         reduced  %+.2f/%+.2f/%+.2f pp (paper: +2.23/+0.33/+25.53)\n",
		res.ReducedDiff[0], res.ReducedDiff[1], res.ReducedDiff[2])
	r.printf("                                         warmup   %+.2f/%+.2f/%+.2f pp (paper L3: +9.08)\n",
		res.WarmupDiff[0], res.WarmupDiff[1], res.WarmupDiff[2])
}

// Fig10Row is one benchmark's L3 access counts (Figure 10).
type Fig10Row struct {
	Benchmark string
	Whole     uint64
	Regional  uint64
	Reduced   uint64
}

// Fig10 reports the number of L3 accesses by Whole, Regional and Reduced
// Regional runs. It shares measurements with Fig8.
func (r *Runner) Fig10(ctx context.Context) ([]Fig10Row, error) {
	f8, err := r.Fig8(ctx)
	if err != nil {
		return nil, err
	}
	var rows []Fig10Row
	t := textplot.NewTable("Benchmark", "Whole L3 accesses", "Regional", "Reduced")
	for _, row := range f8.Rows {
		r10 := Fig10Row{
			Benchmark: row.Benchmark,
			Whole:     row.Whole.L3Accesses,
			Regional:  row.Regional.L3Accesses,
			Reduced:   row.Reduced.L3Accesses,
		}
		rows = append(rows, r10)
		t.AddRow(r10.Benchmark, itoa64(r10.Whole), itoa64(r10.Regional), itoa64(r10.Reduced))
	}
	r.printf("\n== Figure 10: L3 cache accesses ==\n%s", t.String())
	return rows, nil
}

// ----------------------------------------------------------------- Fig 9 --

// Fig9Point is the suite-averaged error/time at one simulation-point
// percentile.
type Fig9Point struct {
	Percentile float64
	// MixErrPct is the suite-mean absolute instruction-mix error
	// (percentage points).
	MixErrPct float64
	// CacheErrPct are suite-mean absolute miss-rate errors vs Whole for
	// L1D/L2/L3, in percentage points.
	CacheErrPct [3]float64
	// ReplayTime is the total replay wall-clock across the suite.
	ReplayTime time.Duration
	// Points is the total simulation-point count across the suite.
	Points int
}

// Fig9 sweeps the percentile of simulation points considered for execution
// and reports suite-averaged error rates and execution time. Passing nil
// uses the paper's 100..30 range in steps of 10.
func (r *Runner) Fig9(ctx context.Context, percentiles []float64) ([]Fig9Point, error) {
	if percentiles == nil {
		percentiles = []float64{1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3}
	}
	hier := r.CacheConfig()
	out := make([]Fig9Point, len(percentiles))
	for i, pct := range percentiles {
		out[i].Percentile = pct
	}
	// Per-benchmark sweeps run in parallel; each contributes one Fig9Point
	// row per percentile, accumulated serially below in suite order.
	type specSweep struct {
		whole wholeRun
		pts   []core.PercentilePoint
	}
	sweeps := make([]specSweep, len(r.specs))
	if err := r.forEachSpec(ctx, func(i int, spec workload.Spec) error {
		an, err := r.analysis(ctx, spec)
		if err != nil {
			return err
		}
		if sweeps[i].whole, err = r.whole(ctx, an, wholeKinds{mix: true, cache: true}); err != nil {
			return err
		}
		sweeps[i].pts, err = an.PercentileSweep(ctx, percentiles, hier)
		return err
	}); err != nil {
		return nil, err
	}
	for _, sw := range sweeps {
		for i, p := range sw.pts {
			out[i].MixErrPct += mixAbsErrPct(p.Mix, sw.whole.mix)
			out[i].CacheErrPct[0] += absFinite((p.Cache.L1D - sw.whole.cache.L1D) * 100)
			out[i].CacheErrPct[1] += absFinite((p.Cache.L2 - sw.whole.cache.L2) * 100)
			out[i].CacheErrPct[2] += absFinite((p.Cache.L3 - sw.whole.cache.L3) * 100)
			out[i].ReplayTime += p.ReplayTime
			out[i].Points += p.NumPoints
		}
	}
	n := float64(len(r.specs))
	for i := range out {
		out[i].MixErrPct /= n
		for c := 0; c < 3; c++ {
			out[i].CacheErrPct[c] /= n
		}
	}
	t := textplot.NewTable("Percentile", "Points", "Mix err (pp)",
		"L1D err pp", "L2 err pp", "L3 err pp", "Replay time")
	for _, p := range out {
		t.AddRow(fmt.Sprintf("%.0f", p.Percentile*100), itoa(p.Points),
			fmt.Sprintf("%.3f", p.MixErrPct),
			fmt.Sprintf("%.2f", p.CacheErrPct[0]),
			fmt.Sprintf("%.2f", p.CacheErrPct[1]),
			fmt.Sprintf("%.2f", p.CacheErrPct[2]),
			p.ReplayTime.Round(time.Millisecond).String())
	}
	r.printf("\n== Figure 9: error and execution time vs simulation-point percentile ==\n%s", t.String())
	return out, nil
}

// ---------------------------------------------------------------- Fig 12 --

// Fig12Row is one benchmark's native-vs-Sniper CPI comparison.
type Fig12Row struct {
	Benchmark   string
	NativeCPI   float64
	RegionalCPI float64
	ReducedCPI  float64
}

// Fig12Result adds the suite averages (the paper: 2.59 % average CPI error
// for Regional, 13.9 % average deviation for Reduced).
type Fig12Result struct {
	Rows []Fig12Row
	// AvgCPIErrRegionalPct is |mean CPI difference| between native and
	// Sniper-with-Regional-points, averaged over the suite, in percent.
	AvgCPIErrRegionalPct float64
	// AvgCPIErrReducedPct is the same for Reduced Regional points.
	AvgCPIErrReducedPct float64
	// Correlation is the Pearson correlation between native and regional
	// CPIs across benchmarks.
	Correlation float64
}

// Fig12 compares whole-program native execution (perf counters, a stored
// whole-run artifact) against Sniper running Regional and Reduced Regional
// pinballs, on CPI.
func (r *Runner) Fig12(ctx context.Context) (*Fig12Result, error) {
	res := &Fig12Result{Rows: make([]Fig12Row, len(r.specs))}
	cfg := r.TimingConfig()
	if err := r.forEachSpec(ctx, func(i int, spec workload.Spec) error {
		an, err := r.analysis(ctx, spec)
		if err != nil {
			return err
		}
		nat, err := r.perfStat(ctx, an)
		if err != nil {
			return err
		}
		reg, red, err := regionalAndReduced(ctx, an, DefaultWarmupSlices, core.Tools{CPI: &cfg})
		if err != nil {
			return err
		}
		res.Rows[i] = Fig12Row{
			Benchmark:   spec.Name,
			NativeCPI:   nat.CPI(),
			RegionalCPI: reg.CPI().CPI,
			ReducedCPI:  red.CPI().CPI,
		}
		return nil
	}); err != nil {
		return nil, err
	}
	// Suite averages and the correlation accumulate serially in suite order.
	var natCPIs, regCPIs []float64
	for _, row := range res.Rows {
		natCPIs = append(natCPIs, row.NativeCPI)
		regCPIs = append(regCPIs, row.RegionalCPI)
		res.AvgCPIErrRegionalPct += stats.RelErrorPct(row.RegionalCPI, row.NativeCPI)
		res.AvgCPIErrReducedPct += stats.RelErrorPct(row.ReducedCPI, row.NativeCPI)
	}
	n := float64(len(res.Rows))
	res.AvgCPIErrRegionalPct /= n
	res.AvgCPIErrReducedPct /= n
	res.Correlation = stats.Pearson(natCPIs, regCPIs)

	t := textplot.NewTable("Benchmark", "Native CPI", "Sniper Regional", "Sniper Reduced")
	for _, row := range res.Rows {
		t.AddRow(row.Benchmark,
			fmt.Sprintf("%.3f", row.NativeCPI),
			fmt.Sprintf("%.3f", row.RegionalCPI),
			fmt.Sprintf("%.3f", row.ReducedCPI))
	}
	r.printf("\n== Figure 12: CPI, native vs Sniper with simulation points ==\n%s", t.String())
	r.printf("avg CPI error: regional %.2f%% (paper: 2.59%%), reduced %.2f%% (paper: 13.9%%); corr %.3f\n",
		res.AvgCPIErrRegionalPct, res.AvgCPIErrReducedPct, res.Correlation)
	return res, nil
}

// ---------------------------------------------------------------- helpers --

// regionalAndReduced measures the Regional Run (every simulation point,
// warm-up warmupSlices) and serves the Reduced Regional Run — the 90th
// percentile of the weight — by re-weighting it: the reduced points are a
// subset of the regional ones, so they are not replayed again.
func regionalAndReduced(ctx context.Context, an *core.Analysis, warmupSlices int, tools core.Tools) (regional, reduced core.Measurement, err error) {
	pbs, err := an.Pinballs(an.Result, warmupSlices)
	if err != nil {
		return regional, reduced, err
	}
	if regional, err = an.Measure(ctx, pbs, tools); err != nil {
		return regional, reduced, err
	}
	res, err := an.Result.Reduce(0.9)
	if err != nil {
		return regional, reduced, err
	}
	reduced, err = regional.Reweight(res)
	return regional, reduced, err
}

func pct(v float64) string { return fmt.Sprintf("%.2f%%", v*100) }

func itoa64(v uint64) string { return fmt.Sprintf("%d", v) }

func sortDesc(v []float64) {
	sort.Sort(sort.Reverse(sort.Float64Slice(v)))
}

// finite drops non-finite values (zero-reference diffs).
func finite(vs []float64) []float64 {
	out := vs[:0]
	for _, v := range vs {
		if v == v && v < 1e308 && v > -1e308 {
			out = append(out, v)
		}
	}
	return out
}

func absFinite(v float64) float64 {
	if v != v || v > 1e308 || v < -1e308 {
		return 0
	}
	if v < 0 {
		return -v
	}
	return v
}
