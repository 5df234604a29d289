package experiments

import (
	"context"
	"fmt"

	"specsampling/internal/core"
	"specsampling/internal/selector"
	"specsampling/internal/stats"
	"specsampling/internal/textplot"
	"specsampling/internal/workload"
)

// The cross-selector shoot-out: every registered region-selection backend
// scored against the Whole-pinball ground truth on the same profiled
// slices. Each benchmark is profiled once (the analysis cache); each
// selector then re-selects ShootoutRepeats times under shifted seeds, its
// regions are replayed, and the sampled CPI / cache miss rates /
// instruction mix are compared to the whole run. The repeat spread becomes
// a Student-t 95 % confidence interval per cell — the repeated-subsampling
// methodology of the ranked-set paper applied uniformly, so deterministic
// backends (simpoint is seed-stable in practice at the paper's defaults)
// simply show near-zero intervals.

// ShootoutEstimate is one repeated-measurement statistic: the mean across
// repeats and the 95 % confidence half-width around it.
type ShootoutEstimate struct {
	Mean float64
	CI95 float64
}

func (e ShootoutEstimate) String() string {
	return fmt.Sprintf("%.3f ±%.3f", e.Mean, e.CI95)
}

// estimate folds per-repeat observations into a ShootoutEstimate.
func estimate(obs []float64) ShootoutEstimate {
	return ShootoutEstimate{Mean: stats.Mean(obs), CI95: stats.CI95(obs)}
}

// ShootoutCell is one selector's score on one benchmark.
type ShootoutCell struct {
	// Selector is the backend name.
	Selector string
	// Points and SampledPct describe the selection cost: simulation-point
	// count and replayed fraction of the whole run (percent), averaged
	// across repeats.
	Points     ShootoutEstimate
	SampledPct ShootoutEstimate
	// CPIErrPct is the relative CPI error vs the whole run, in percent.
	CPIErrPct ShootoutEstimate
	// L1DErrPP, L2ErrPP, L3ErrPP are absolute miss-rate errors in
	// percentage points.
	L1DErrPP ShootoutEstimate
	L2ErrPP  ShootoutEstimate
	L3ErrPP  ShootoutEstimate
	// MixErrPP is the mean absolute instruction-mix error across the four
	// categories, in percentage points.
	MixErrPP ShootoutEstimate
}

// ShootoutRow is one benchmark's scores across all selectors (cells in
// selector.Names() order).
type ShootoutRow struct {
	Benchmark string
	Cells     []ShootoutCell
}

// ShootoutResult is the cross-selector comparison: per-benchmark rows plus
// the suite-level summary (each suite cell averages the per-repeat suite
// means, so its CI reflects repeat-to-repeat spread, not benchmark spread).
type ShootoutResult struct {
	// Selectors are the compared backends, in report order.
	Selectors []string
	// Repeats is the repeated-subsampling count behind every CI.
	Repeats int
	// Rows hold per-benchmark scores in suite order.
	Rows []ShootoutRow
	// Suite holds the suite-level summary cells, one per selector.
	Suite []ShootoutCell
}

// shootoutObs is one (benchmark, selector, repeat) observation.
type shootoutObs struct {
	points     float64
	sampledPct float64
	cpiErrPct  float64
	l1dErrPP   float64
	l2ErrPP    float64
	l3ErrPP    float64
	mixErrPP   float64
}

// shootoutMeasure replays one repeat's selection and scores it against the
// whole-run ground truth.
func (r *Runner) shootoutMeasure(ctx context.Context, an *core.Analysis, cfg core.Config, whole core.Measurement) (shootoutObs, error) {
	var o shootoutObs
	res, err := an.SelectWith(ctx, cfg)
	if err != nil {
		return o, err
	}
	pbs, err := an.Pinballs(res, 0)
	if err != nil {
		return o, err
	}
	hier, tcfg := r.CacheConfig(), r.TimingConfig()
	m, err := an.Measure(ctx, pbs, core.Tools{Mix: true, Cache: &hier, CPI: &tcfg})
	if err != nil {
		return o, err
	}
	mix, ch, cpi := m.Mix(), m.Cache(), m.CPI()
	wmix, wch, wcpi := whole.Mix(), whole.Cache(), whole.CPI()
	o.points = float64(res.NumPoints())
	o.sampledPct = 100 * float64(res.SampledInstrs()) / float64(an.TotalInstrs)
	o.cpiErrPct = stats.RelErrorPct(cpi.CPI, wcpi.CPI)
	o.l1dErrPP = 100 * stats.AbsError(ch.L1D, wch.L1D)
	o.l2ErrPP = 100 * stats.AbsError(ch.L2, wch.L2)
	o.l3ErrPP = 100 * stats.AbsError(ch.L3, wch.L3)
	for c := 0; c < 4; c++ {
		o.mixErrPP += 100 * stats.AbsError(mix.Fractions[c], wmix.Fractions[c]) / 4
	}
	return o, nil
}

// Shootout runs the cross-selector comparison. The per-benchmark passes fan
// out across the worker budget (each writes an index-addressed row);
// repeats run serially inside a pass so the seed schedule — base seed for
// repeat 0, base+i for repeat i — is identical for any worker count.
func (r *Runner) Shootout(ctx context.Context) (*ShootoutResult, error) {
	names := selector.Names()
	repeats := r.opts.ShootoutRepeats
	res := &ShootoutResult{
		Selectors: names,
		Repeats:   repeats,
		Rows:      make([]ShootoutRow, len(r.specs)),
	}
	// obsGrid[bench][selector][repeat] — index-addressed so the parallel
	// fan-out is schedule-independent.
	obsGrid := make([][][]shootoutObs, len(r.specs))

	if err := r.forEachSpec(ctx, func(i int, spec workload.Spec) error {
		an, whole, err := r.whole(ctx, spec)
		if err != nil {
			return err
		}
		grid := make([][]shootoutObs, len(names))
		for s, name := range names {
			grid[s] = make([]shootoutObs, repeats)
			for rep := 0; rep < repeats; rep++ {
				cfg := r.cfg
				cfg.Selector = name
				cfg.Seed = r.cfg.Seed + uint64(rep)
				grid[s][rep], err = r.shootoutMeasure(ctx, an, cfg, whole)
				if err != nil {
					return fmt.Errorf("experiments: shootout %s/%s repeat %d: %w",
						spec.Name, name, rep, err)
				}
			}
		}
		obsGrid[i] = grid
		return nil
	}); err != nil {
		return nil, err
	}

	for i, spec := range r.specs {
		row := ShootoutRow{Benchmark: spec.Name, Cells: make([]ShootoutCell, len(names))}
		for s, name := range names {
			row.Cells[s] = foldCells(name, obsGrid[i][s])
		}
		res.Rows[i] = row
	}

	// Suite summary: average each repeat across benchmarks first, then fold
	// the per-repeat suite means — the CI measures sampling (seed) spread.
	res.Suite = make([]ShootoutCell, len(names))
	for s, name := range names {
		suiteReps := make([]shootoutObs, repeats)
		for rep := 0; rep < repeats; rep++ {
			var acc shootoutObs
			for i := range r.specs {
				o := obsGrid[i][s][rep]
				acc.points += o.points
				acc.sampledPct += o.sampledPct
				acc.cpiErrPct += o.cpiErrPct
				acc.l1dErrPP += o.l1dErrPP
				acc.l2ErrPP += o.l2ErrPP
				acc.l3ErrPP += o.l3ErrPP
				acc.mixErrPP += o.mixErrPP
			}
			n := float64(len(r.specs))
			acc.points /= n
			acc.sampledPct /= n
			acc.cpiErrPct /= n
			acc.l1dErrPP /= n
			acc.l2ErrPP /= n
			acc.l3ErrPP /= n
			acc.mixErrPP /= n
			suiteReps[rep] = acc
		}
		res.Suite[s] = foldCells(name, suiteReps)
	}

	r.printShootout(res)
	return res, nil
}

// foldCells turns one (selector, benchmark-or-suite) repeat series into a
// cell of mean ± CI estimates.
func foldCells(name string, reps []shootoutObs) ShootoutCell {
	col := func(f func(shootoutObs) float64) ShootoutEstimate {
		vals := make([]float64, len(reps))
		for i, o := range reps {
			vals[i] = f(o)
		}
		return estimate(vals)
	}
	return ShootoutCell{
		Selector:   name,
		Points:     col(func(o shootoutObs) float64 { return o.points }),
		SampledPct: col(func(o shootoutObs) float64 { return o.sampledPct }),
		CPIErrPct:  col(func(o shootoutObs) float64 { return o.cpiErrPct }),
		L1DErrPP:   col(func(o shootoutObs) float64 { return o.l1dErrPP }),
		L2ErrPP:    col(func(o shootoutObs) float64 { return o.l2ErrPP }),
		L3ErrPP:    col(func(o shootoutObs) float64 { return o.l3ErrPP }),
		MixErrPP:   col(func(o shootoutObs) float64 { return o.mixErrPP }),
	}
}

// printShootout renders the suite summary plus the per-benchmark CPI-error
// table (the headline metric; the full grid is in the JSON report).
func (r *Runner) printShootout(res *ShootoutResult) {
	t := textplot.NewTable("Selector", "Points", "Sampled %",
		"CPI err %", "L1D err pp", "L2 err pp", "L3 err pp", "Mix err pp")
	for _, c := range res.Suite {
		t.AddRow(c.Selector, fmt.Sprintf("%.1f", c.Points.Mean),
			fmt.Sprintf("%.2f", c.SampledPct.Mean),
			c.CPIErrPct.String(), c.L1DErrPP.String(),
			c.L2ErrPP.String(), c.L3ErrPP.String(), c.MixErrPP.String())
	}
	r.printf("\n== Selector shoot-out: suite means ± 95%% CI over %d repeats ==\n%s",
		res.Repeats, t.String())

	bt := textplot.NewTable(append([]string{"Benchmark"}, res.Selectors...)...)
	for _, row := range res.Rows {
		cells := make([]string, 0, len(row.Cells)+1)
		cells = append(cells, row.Benchmark)
		for _, c := range row.Cells {
			cells = append(cells, c.CPIErrPct.String())
		}
		bt.AddRow(cells...)
	}
	r.printf("\n== Selector shoot-out: CPI error %% per benchmark ==\n%s", bt.String())
}
