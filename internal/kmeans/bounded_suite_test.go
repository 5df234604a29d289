package kmeans_test

import (
	"math"
	"strconv"
	"testing"

	"specsampling/internal/bbv"
	"specsampling/internal/kmeans"
	"specsampling/internal/obs"
	"specsampling/internal/simpoint"
	"specsampling/internal/workload"
)

// requireIdenticalResults is the external-package twin of the in-package
// requireIdentical helper: bit-level equality of every Result field.
func requireIdenticalResults(t *testing.T, a, b *kmeans.Result, label string) {
	t.Helper()
	if a.K != b.K {
		t.Fatalf("%s: K %d != %d", label, a.K, b.K)
	}
	if math.Float64bits(a.WCSS) != math.Float64bits(b.WCSS) {
		t.Fatalf("%s: WCSS %v != %v", label, a.WCSS, b.WCSS)
	}
	if len(a.Assign) != len(b.Assign) {
		t.Fatalf("%s: assign lengths %d != %d", label, len(a.Assign), len(b.Assign))
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatalf("%s: assign[%d] %d != %d", label, i, a.Assign[i], b.Assign[i])
		}
	}
	if len(a.Centroids) != len(b.Centroids) {
		t.Fatalf("%s: centroid counts %d != %d", label, len(a.Centroids), len(b.Centroids))
	}
	for c := range a.Centroids {
		for j := range a.Centroids[c] {
			if math.Float64bits(a.Centroids[c][j]) != math.Float64bits(b.Centroids[c][j]) {
				t.Fatalf("%s: centroid[%d][%d] %v != %v", label, c, j, a.Centroids[c][j], b.Centroids[c][j])
			}
		}
	}
	if len(a.Sizes) != len(b.Sizes) {
		t.Fatalf("%s: size counts %d != %d", label, len(a.Sizes), len(b.Sizes))
	}
	for c := range a.Sizes {
		if a.Sizes[c] != b.Sizes[c] {
			t.Fatalf("%s: sizes[%d] %d != %d", label, c, a.Sizes[c], b.Sizes[c])
		}
	}
}

// suiteFixturePoints reproduces simpoint.Cluster's exact input for a real
// suite workload at a reduced scale: profile the program into BBV slices,
// then L1-normalise and randomly project each vector. These are the points
// the production pipeline actually clusters, so pinning bounded-vs-plain
// identity here pins the pipeline, not just synthetic Gaussians.
func suiteFixturePoints(t *testing.T, name string, seed uint64) [][]float64 {
	t.Helper()
	spec, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := spec.Build(workload.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	slices, _, err := simpoint.Profile(prog, workload.ScaleSmall.SliceLen)
	if err != nil {
		t.Fatal(err)
	}
	proj, err := bbv.NewProjector(len(slices[0].BBV), bbv.DefaultProjectedDims, seed)
	if err != nil {
		t.Fatal(err)
	}
	points := make([][]float64, len(slices))
	for i, s := range slices {
		v := append([]float64(nil), s.BBV...)
		bbv.NormalizeL1(v)
		points[i] = proj.Project(v)
	}
	return points
}

// TestBoundedMatchesPlainOnSuiteFixtures is the satellite determinism test:
// on real suite BBV fixtures the bounded kernel must produce byte-identical
// assignments, centroids and WCSS to the plain Lloyd path, for both Run and
// the BestK sweep and for every worker count. Runs under -race via the
// Makefile racesmoke target.
func TestBoundedMatchesPlainOnSuiteFixtures(t *testing.T) {
	for _, name := range []string{"perlbench_r", "mcf_r", "lbm_r"} {
		t.Run(name, func(t *testing.T) {
			points := suiteFixturePoints(t, name, simpoint.DefaultSeed)
			cfg := kmeans.DefaultConfig(simpoint.DefaultSeed)
			cfg.Workers = 1
			plain, err := kmeans.RunPlain(points, 8, cfg)
			if err != nil {
				t.Fatal(err)
			}
			plainBest, _, err := kmeans.BestKPlain(points, simpoint.DefaultMaxK, simpoint.DefaultBICThreshold, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4} {
				wcfg := cfg
				wcfg.Workers = workers
				bounded, err := kmeans.Run(points, 8, wcfg)
				if err != nil {
					t.Fatal(err)
				}
				requireIdenticalResults(t, plain, bounded, name+"/run/workers="+strconv.Itoa(workers))
				best, _, err := kmeans.BestK(points, simpoint.DefaultMaxK, simpoint.DefaultBICThreshold, wcfg)
				if err != nil {
					t.Fatal(err)
				}
				requireIdenticalResults(t, plainBest, best, name+"/bestk/workers="+strconv.Itoa(workers))
			}
		})
	}
}

// remeasureBenchmarks spans phase counts and footprints across the suite.
var remeasureBenchmarks = []string{
	"505.mcf_r", "520.omnetpp_r", "503.bwaves_r", "548.exchange2_r",
	"519.lbm_r", "557.xz_r", "623.xalancbmk_s", "511.povray_r",
}

// TestBestKMatchesPlainAcrossSuite widens the suite-fixture identity check
// to the full BestK sweep on eight benchmarks, two projection seeds and two
// worker counts: chosen result and every candidate's BIC score must match
// the plain sweep bit for bit. -short keeps three benchmarks.
func TestBestKMatchesPlainAcrossSuite(t *testing.T) {
	names := remeasureBenchmarks
	if testing.Short() {
		names = names[:3]
	}
	for _, name := range names {
		for _, seed := range []uint64{simpoint.DefaultSeed, simpoint.DefaultSeed + 1} {
			label := name + "/seed=" + strconv.FormatUint(seed, 10)
			points := suiteFixturePoints(t, name, seed)
			cfg := kmeans.DefaultConfig(seed)
			cfg.Workers = 1
			plain, plainBIC, err := kmeans.BestKPlain(points, simpoint.DefaultMaxK, simpoint.DefaultBICThreshold, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2} {
				cfg.Workers = workers
				best, bic, err := kmeans.BestK(points, simpoint.DefaultMaxK, simpoint.DefaultBICThreshold, cfg)
				if err != nil {
					t.Fatal(err)
				}
				wlabel := label + "/workers=" + strconv.Itoa(workers)
				requireIdenticalResults(t, plain, best, wlabel)
				if len(bic) != len(plainBIC) {
					t.Fatalf("%s: BIC map sizes %d != %d", wlabel, len(bic), len(plainBIC))
				}
				for k, v := range plainBIC {
					if math.Float64bits(bic[k]) != math.Float64bits(v) {
						t.Fatalf("%s: BIC[%d] %v != %v", wlabel, k, bic[k], v)
					}
				}
			}
		}
	}
}

// TestBoundedSkipsWork asserts the bounds actually fire — otherwise the
// kernel is correct but pointless. On separated synthetic clusters most
// steady-state point-iterations must be skips. On the suite fixtures the
// BestK sweep's skip ratio must beat what the earlier single-bound
// (Hamerly) kernel reached on the same input, and guard failures that
// re-run the plain scan must stay under 1 % of scans.
func TestBoundedSkipsWork(t *testing.T) {
	skipC := obs.GetCounter("kmeans.bounds_skips")
	scanC := obs.GetCounter("kmeans.bounds_scans")
	fallbackC := obs.GetCounter("kmeans.bounds_fallbacks")
	measure := func(run func() error) (skips, scans, fallbacks int64) {
		t.Helper()
		s0, c0, f0 := skipC.Value(), scanC.Value(), fallbackC.Value()
		if err := run(); err != nil {
			t.Fatal(err)
		}
		return skipC.Value() - s0, scanC.Value() - c0, fallbackC.Value() - f0
	}

	points, _ := kmeans.GaussianClusters(8, 200, 16, 0.3, 23)
	skips, scans, _ := measure(func() error {
		_, err := kmeans.Run(points, 8, kmeans.Config{Restarts: 1, MaxIter: 40, Seed: 5})
		return err
	})
	if skips == 0 {
		t.Fatalf("bounded kernel never skipped a scan (scans=%d)", scans)
	}
	if skips < scans {
		t.Errorf("bounds too weak: %d skips vs %d scans on separated clusters", skips, scans)
	}

	for _, fx := range []struct {
		name string
		// hamerly is the single-bound kernel's skip ratio on this fixture
		// (BestK, DefaultConfig(DefaultSeed), one worker).
		hamerly float64
	}{
		{"perlbench_r", 0.4363},
		{"mcf_r", 0.3916},
		{"lbm_r", 0.3441},
	} {
		points := suiteFixturePoints(t, fx.name, simpoint.DefaultSeed)
		cfg := kmeans.DefaultConfig(simpoint.DefaultSeed)
		cfg.Workers = 1
		skips, scans, fallbacks := measure(func() error {
			_, _, err := kmeans.BestK(points, simpoint.DefaultMaxK, simpoint.DefaultBICThreshold, cfg)
			return err
		})
		ratio := float64(skips) / float64(skips+scans)
		t.Logf("%s: skips=%d scans=%d fallbacks=%d skip ratio %.4f (single bound %.4f)",
			fx.name, skips, scans, fallbacks, ratio, fx.hamerly)
		if ratio <= fx.hamerly {
			t.Errorf("%s: skip ratio %.4f does not beat the single-bound kernel's %.4f", fx.name, ratio, fx.hamerly)
		}
		if fallbacks*100 >= scans {
			t.Errorf("%s: %d fallbacks is not under 1%% of %d scans", fx.name, fallbacks, scans)
		}
	}
}
