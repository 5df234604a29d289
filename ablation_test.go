package specsampling

// Ablation benchmarks for the reproduction's design choices (DESIGN.md §5):
// warm-up length, random-projection dimensionality, BIC threshold and
// k-means subsampling. Each reports how the choice moves the metrics the
// paper cares about, so the default settings are justified by data rather
// than assertion.

import (
	"context"
	"fmt"
	"math"
	"testing"

	"specsampling/internal/core"
	"specsampling/internal/kmeans"
	"specsampling/internal/simpoint"
	"specsampling/internal/workload"
)

// tctx is the background context the ablation benchmarks thread through
// the core API.
var tctx = context.Background()

// ablationAnalysis builds one mid-sized pointer-chasing benchmark — the
// worst case for cold caches — at the test scale.
func ablationAnalysis(b *testing.B) *core.Analysis {
	b.Helper()
	spec, err := workload.ByName("505.mcf_r")
	if err != nil {
		b.Fatal(err)
	}
	scale := workload.ScaleFromEnv(workload.ScaleSmall)
	an, err := core.Analyze(tctx, spec, core.DefaultConfig(scale))
	if err != nil {
		b.Fatal(err)
	}
	return an
}

// BenchmarkAblationWarmupLength sweeps the warm-up length before each
// simulation point. The paper warms 500M cycles before each 30M-instruction
// region (~16 slices' worth); the L3 miss-rate error should collapse as
// warm-up grows and saturate near the default.
func BenchmarkAblationWarmupLength(b *testing.B) {
	an := ablationAnalysis(b)
	hier := an.CacheConfig()
	whole, err := an.WholeCache(tctx, hier)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, warmup := range []int{0, 4, 16, 64} {
			pbs, err := an.Pinballs(an.Result, warmup)
			if err != nil {
				b.Fatal(err)
			}
			prof, err := an.SampledCache(tctx, pbs, hier)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(math.Abs(prof.L3-whole.L3)*100,
				fmt.Sprintf("L3-err-pp-warmup-%d", warmup))
		}
	}
}

// BenchmarkAblationProjectionDims sweeps the random-projection
// dimensionality around SimPoint's default 15. Too few dimensions blur
// phases together (fewer points, worse mix error); more than 15 buys little.
func BenchmarkAblationProjectionDims(b *testing.B) {
	an := ablationAnalysis(b)
	w, err := an.MeasureWhole(tctx, core.Tools{Mix: true})
	if err != nil {
		b.Fatal(err)
	}
	whole := w.Mix()
	for i := 0; i < b.N; i++ {
		for _, dims := range []int{2, 15, 64} {
			cfg := simpoint.DefaultConfig(an.Config.Scale.SliceLen)
			cfg.ProjectDims = dims
			res, err := simpoint.Cluster(an.Prog.Name, an.Slices, an.TotalInstrs, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.NumPoints()), fmt.Sprintf("points-dims-%d", dims))

			pbs, err := an.Pinballs(res, 0)
			if err != nil {
				b.Fatal(err)
			}
			m, err := an.Measure(tctx, pbs, core.Tools{Mix: true})
			if err != nil {
				b.Fatal(err)
			}
			mix := m.Mix()
			var errPP float64
			for c := 0; c < 4; c++ {
				errPP += math.Abs(mix.Fractions[c]-whole.Fractions[c]) / 4 * 100
			}
			b.ReportMetric(errPP, fmt.Sprintf("mix-err-pp-dims-%d", dims))
		}
	}
}

// BenchmarkAblationBICThreshold sweeps the BIC acceptance threshold.
// Lower thresholds accept smaller k (fewer points, coarser sampling).
func BenchmarkAblationBICThreshold(b *testing.B) {
	an := ablationAnalysis(b)
	for i := 0; i < b.N; i++ {
		prev := 0
		for _, th := range []float64{0.5, 0.9, 0.999} {
			cfg := simpoint.DefaultConfig(an.Config.Scale.SliceLen)
			cfg.BICThreshold = th
			res, err := simpoint.Cluster(an.Prog.Name, an.Slices, an.TotalInstrs, cfg)
			if err != nil {
				b.Fatal(err)
			}
			n := res.NumPoints()
			if n < prev {
				b.Errorf("points decreased as threshold rose: %d -> %d at %v", prev, n, th)
			}
			prev = n
			b.ReportMetric(float64(n), fmt.Sprintf("points-bic-%.3f", th))
		}
	}
}

// BenchmarkAblationKMeansSampling compares clustering on the full slice set
// against the default 4096-slice subsample: quality (simulation-point
// count) should be stable while time drops.
func BenchmarkAblationKMeansSampling(b *testing.B) {
	an := ablationAnalysis(b)
	for i := 0; i < b.N; i++ {
		for _, sample := range []int{512, 4096, 1 << 30} {
			cfg := simpoint.DefaultConfig(an.Config.Scale.SliceLen)
			cfg.KMeans = kmeans.DefaultConfig(cfg.Seed)
			cfg.KMeans.SampleSize = sample
			res, err := simpoint.Cluster(an.Prog.Name, an.Slices, an.TotalInstrs, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.NumPoints()), fmt.Sprintf("points-sample-%d", sample))
		}
	}
}

// BenchmarkAblationCachePrefetch quantifies the timing model's next-line
// prefetcher: CPI without it should be visibly higher on a streaming
// benchmark.
func BenchmarkAblationCachePrefetch(b *testing.B) {
	spec, err := workload.ByName("519.lbm_r") // streaming stencil code
	if err != nil {
		b.Fatal(err)
	}
	scale := workload.ScaleFromEnv(workload.ScaleSmall)
	an, err := core.Analyze(tctx, spec, core.DefaultConfig(scale))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		on := an.TimingConfig()
		off := on
		off.Prefetch = false
		cpiOn, err := an.WholeCPI(tctx, on)
		if err != nil {
			b.Fatal(err)
		}
		cpiOff, err := an.WholeCPI(tctx, off)
		if err != nil {
			b.Fatal(err)
		}
		if cpiOff.CPI < cpiOn.CPI {
			b.Errorf("prefetch made streaming slower: %v vs %v", cpiOn.CPI, cpiOff.CPI)
		}
		b.ReportMetric(cpiOn.CPI, "cpi-prefetch-on")
		b.ReportMetric(cpiOff.CPI, "cpi-prefetch-off")
	}
}
