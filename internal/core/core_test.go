package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"specsampling/internal/cache"
	"specsampling/internal/native"
	"specsampling/internal/pin"
	"specsampling/internal/pinball"
	"specsampling/internal/pintool"
	"specsampling/internal/simpoint"
	"specsampling/internal/timing"
	"specsampling/internal/workload"
)

// tctx is the background context every test threads through the API.
var tctx = context.Background()

// analyzeBench runs the pipeline for a named benchmark at small scale.
func analyzeBench(t testing.TB, name string) *Analysis {
	t.Helper()
	spec, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(workload.ScaleSmall)
	an, err := Analyze(tctx, spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return an
}

func TestAnalyzeBasics(t *testing.T) {
	an := analyzeBench(t, "520.omnetpp_r")
	if an.Result.NumPoints() == 0 {
		t.Fatal("no simulation points")
	}
	if math.Abs(an.Result.WeightTotal()-1) > 1e-9 {
		t.Errorf("weights sum to %v", an.Result.WeightTotal())
	}
	if an.TotalInstrs == 0 || len(an.Slices) == 0 {
		t.Error("missing profile data")
	}
	var sliceSum uint64
	for _, s := range an.Slices {
		sliceSum += s.Len
	}
	if sliceSum != an.TotalInstrs {
		t.Errorf("slices sum to %d, total %d", sliceSum, an.TotalInstrs)
	}
}

func TestPinballsMatchPoints(t *testing.T) {
	an := analyzeBench(t, "557.xz_r")
	pbs, err := an.Pinballs(an.Result, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pbs) != an.Result.NumPoints() {
		t.Fatalf("%d pinballs for %d points", len(pbs), an.Result.NumPoints())
	}
	for i, pb := range pbs {
		pt := an.Result.Points[i]
		if pb.Len != pt.Len || pb.Weight != pt.Weight {
			t.Errorf("pinball %d diverges from its point", i)
		}
		if pb.HasWarmup {
			t.Errorf("pinball %d has unexpected warm-up", i)
		}
	}
}

// TestWholePinballReplaysToEnd: replaying the whole-execution pinball
// executes exactly what a run to program end does. Executed counts overshoot
// the nominal Program.TotalInstrs by up to one block per segment, so a
// pinball sized to the nominal count would stop short.
func TestWholePinballReplaysToEnd(t *testing.T) {
	for _, name := range []string{"505.mcf_r", "541.leela_r", "519.lbm_r"} {
		t.Run(name, func(t *testing.T) {
			an := analyzeBench(t, name)
			want := pin.NewEngine(an.Prog).RunToEnd()
			ic := pintool.NewInsCount()
			n, err := pinball.Replay(an.Prog, an.WholePinball(), ic)
			if err != nil {
				t.Fatal(err)
			}
			if n != want || ic.Instrs != want {
				t.Errorf("whole pinball replayed %d instructions (counter %d), run to end executes %d", n, ic.Instrs, want)
			}
		})
	}
}

func TestPinballsWithWarmup(t *testing.T) {
	an := analyzeBench(t, "557.xz_r")
	pbs, err := an.Pinballs(an.Result, 4)
	if err != nil {
		t.Fatal(err)
	}
	warmed := 0
	for _, pb := range pbs {
		if !pb.HasWarmup {
			// Only points within the first warmupSlices slices may lack
			// warm-up.
			if pb.Start.Instrs > 4*an.Config.Scale.SliceLen+64 {
				t.Errorf("region at %d lacks warm-up", pb.Start.Instrs)
			}
			continue
		}
		warmed++
		if pb.Warmup.Instrs+pb.WarmupLen != pb.Start.Instrs {
			t.Error("warm-up does not abut the region")
		}
	}
	if warmed == 0 {
		t.Error("no pinball carries warm-up")
	}
}

// The pipeline's central accuracy claim: the weighted sampled instruction
// mix matches the whole-run mix to within ~1-2%.
func TestSampledMixTracksWholeMix(t *testing.T) {
	an := analyzeBench(t, "541.leela_r")
	w, err := an.MeasureWhole(tctx, Tools{Mix: true})
	if err != nil {
		t.Fatal(err)
	}
	pbs, err := an.Pinballs(an.Result, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := an.Measure(tctx, pbs, Tools{Mix: true})
	if err != nil {
		t.Fatal(err)
	}
	whole, sampled := w.Mix(), m.Mix()
	for c := 0; c < 4; c++ {
		if d := math.Abs(sampled.Fractions[c] - whole.Fractions[c]); d > 0.03 {
			t.Errorf("category %d: sampled %v vs whole %v (abs diff %v)",
				c, sampled.Fractions[c], whole.Fractions[c], d)
		}
	}
	if sampled.Instrs >= whole.Instrs {
		t.Error("sampling did not reduce instructions")
	}
}

func TestSampledCacheGradient(t *testing.T) {
	an := analyzeBench(t, "505.mcf_r")
	hier := an.CacheConfig()
	whole, err := an.WholeCache(tctx, hier)
	if err != nil {
		t.Fatal(err)
	}
	pbs, err := an.Pinballs(an.Result, 0)
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := an.SampledCache(tctx, pbs, hier)
	if err != nil {
		t.Fatal(err)
	}
	// Regional L3 accesses must be far fewer than whole (Figure 10).
	if sampled.L3Accesses >= whole.L3Accesses {
		t.Errorf("regional L3 accesses %d >= whole %d", sampled.L3Accesses, whole.L3Accesses)
	}
	// Cold-start inflation: sampled L3 miss rate should be >= whole's.
	if sampled.L3 < whole.L3-0.02 {
		t.Errorf("sampled L3 miss rate %v unexpectedly below whole %v", sampled.L3, whole.L3)
	}
	for _, v := range []float64{sampled.L1D, sampled.L2, sampled.L3, whole.L1D, whole.L2, whole.L3} {
		if v < 0 || v > 1 {
			t.Errorf("miss rate %v out of range", v)
		}
	}
}

func TestWarmupReducesL3Error(t *testing.T) {
	an := analyzeBench(t, "505.mcf_r")
	hier := an.CacheConfig()
	whole, err := an.WholeCache(tctx, hier)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := an.Pinballs(an.Result, 0)
	if err != nil {
		t.Fatal(err)
	}
	coldProf, err := an.SampledCache(tctx, cold, hier)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := an.Pinballs(an.Result, 8)
	if err != nil {
		t.Fatal(err)
	}
	warmProf, err := an.SampledCache(tctx, warm, hier)
	if err != nil {
		t.Fatal(err)
	}
	coldErr := math.Abs(coldProf.L3 - whole.L3)
	warmErr := math.Abs(warmProf.L3 - whole.L3)
	if warmErr > coldErr+0.01 {
		t.Errorf("warm-up increased L3 error: cold %v, warm %v", coldErr, warmErr)
	}
}

func TestSampledCPITracksWholeCPI(t *testing.T) {
	an := analyzeBench(t, "541.leela_r")
	cfg := an.TimingConfig()
	whole, err := an.WholeCPI(tctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pbs, err := an.Pinballs(an.Result, 4)
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := an.SampledCPI(tctx, pbs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if whole.CPI <= 0 || sampled.CPI <= 0 {
		t.Fatalf("degenerate CPIs: whole %v sampled %v", whole.CPI, sampled.CPI)
	}
	if rel := math.Abs(sampled.CPI-whole.CPI) / whole.CPI; rel > 0.25 {
		t.Errorf("sampled CPI %v vs whole %v (rel err %v)", sampled.CPI, whole.CPI, rel)
	}
}

func TestNativeVsSniperSampled(t *testing.T) {
	an := analyzeBench(t, "541.leela_r")
	nat, err := native.PerfStat(an.Prog, an.Config.Scale.CacheDivs, 0)
	if err != nil {
		t.Fatal(err)
	}
	pbs, err := an.Pinballs(an.Result, 4)
	if err != nil {
		t.Fatal(err)
	}
	sniper, err := an.SampledCPI(tctx, pbs, an.TimingConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(sniper.CPI-nat.CPI()) / nat.CPI(); rel > 0.30 {
		t.Errorf("sniper-sampled CPI %v vs native %v (rel err %v)", sniper.CPI, nat.CPI(), rel)
	}
}

func TestCompareRuns(t *testing.T) {
	an := analyzeBench(t, "520.omnetpp_r")
	rc, err := an.CompareRuns(tctx, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if rc.WholeInstrs == 0 || rc.RegionalInstrs == 0 || rc.ReducedInstrs == 0 {
		t.Fatalf("zero instruction counts: %+v", rc)
	}
	if rc.RegionalInstrs >= rc.WholeInstrs {
		t.Error("regional run not smaller than whole")
	}
	if rc.ReducedInstrs > rc.RegionalInstrs {
		t.Error("reduced run larger than regional")
	}
	if rc.NumPoints90 > rc.NumPoints {
		t.Error("reduction added points")
	}
	regional, reduced := rc.InstrReduction()
	if regional <= 1 || reduced < regional {
		t.Errorf("instruction reductions: regional %v, reduced %v", regional, reduced)
	}
	tr, trr := rc.TimeReduction()
	if tr <= 0 || trr <= 0 {
		t.Errorf("time reductions: %v %v", tr, trr)
	}
}

func TestSweepMaxK(t *testing.T) {
	an := analyzeBench(t, "520.omnetpp_r")
	pts, err := an.SweepMaxK(tctx, []int{3, 10}, an.CacheConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d sweep points", len(pts))
	}
	if pts[0].NumPoints > 3 {
		t.Errorf("MaxK=3 produced %d points", pts[0].NumPoints)
	}
	if pts[0].Label != "MaxK=3" || pts[1].Label != "MaxK=10" {
		t.Errorf("labels: %q %q", pts[0].Label, pts[1].Label)
	}
}

func TestSweepSliceSize(t *testing.T) {
	spec, err := workload.ByName("520.omnetpp_r")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(workload.ScaleSmall)
	hier := cache.ScaledHierarchy(cache.TableIConfig(), workload.ScaleSmall.CacheDivs)
	pts, err := SweepSliceSize(tctx, spec, cfg, []uint64{15_000_000, 30_000_000}, hier)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d sweep points", len(pts))
	}
	if pts[0].Label != "slice=15M" {
		t.Errorf("label %q", pts[0].Label)
	}
}

func TestPercentileSweep(t *testing.T) {
	an := analyzeBench(t, "557.xz_r")
	pts, err := an.PercentileSweep(tctx, []float64{1.0, 0.9, 0.5}, an.CacheConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d points", len(pts))
	}
	// Fewer points and fewer instructions as the percentile drops.
	for i := 1; i < len(pts); i++ {
		if pts[i].NumPoints > pts[i-1].NumPoints {
			t.Errorf("points grew as percentile dropped: %d -> %d",
				pts[i-1].NumPoints, pts[i].NumPoints)
		}
		if pts[i].Mix.Instrs > pts[i-1].Mix.Instrs {
			t.Error("instructions grew as percentile dropped")
		}
	}
}

func TestErrorPaths(t *testing.T) {
	an := analyzeBench(t, "520.omnetpp_r")
	if _, err := an.Pinballs(nil, 0); err == nil {
		t.Error("nil result accepted")
	}
	if _, err := an.Measure(tctx, nil, Tools{Mix: true}); err == nil {
		t.Error("empty pinball set accepted for mix")
	}
	pbs, err := an.Pinballs(an.Result, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := an.Measure(tctx, pbs, Tools{}); err == nil {
		t.Error("empty tool set accepted")
	}
	if _, err := an.MeasureWhole(tctx, Tools{}); err == nil {
		t.Error("empty tool set accepted for a whole run")
	}
	m, err := an.Measure(tctx, pbs[1:], Tools{Mix: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Reweight(an.Result); err == nil {
		t.Error("re-weighting onto an unmeasured region accepted")
	}
	if _, err := an.SampledCache(tctx, nil, an.CacheConfig()); err == nil {
		t.Error("empty pinball set accepted for cache")
	}
	if _, err := an.SampledCPI(tctx, nil, an.TimingConfig()); err == nil {
		t.Error("empty pinball set accepted for CPI")
	}
	if _, err := an.WholeCache(tctx, cache.HierarchyConfig{}); err == nil {
		t.Error("invalid hierarchy accepted")
	}
}

func TestRepeatedReplayReducesL3Error(t *testing.T) {
	an := analyzeBench(t, "505.mcf_r")
	hier := an.CacheConfig()
	whole, err := an.WholeCache(tctx, hier)
	if err != nil {
		t.Fatal(err)
	}
	pbs, err := an.Pinballs(an.Result, 0)
	if err != nil {
		t.Fatal(err)
	}
	once, err := an.SampledCacheRepeated(tctx, pbs, hier, 1)
	if err != nil {
		t.Fatal(err)
	}
	// rounds=1 must agree with the plain path.
	plain, err := an.SampledCache(tctx, pbs, hier)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(once.L3-plain.L3) > 1e-9 {
		t.Errorf("rounds=1 L3 %v != plain %v", once.L3, plain.L3)
	}
	thrice, err := an.SampledCacheRepeated(tctx, pbs, hier, 3)
	if err != nil {
		t.Fatal(err)
	}
	errOnce := math.Abs(once.L3 - whole.L3)
	errThrice := math.Abs(thrice.L3 - whole.L3)
	if errThrice > errOnce+0.01 {
		t.Errorf("repeated replay increased L3 error: %v -> %v", errOnce, errThrice)
	}
	if _, err := an.SampledCacheRepeated(tctx, pbs, hier, 0); err == nil {
		t.Error("rounds=0 accepted")
	}
	if _, err := an.SampledCacheRepeated(tctx, nil, hier, 2); err == nil {
		t.Error("empty pinballs accepted")
	}
}

// directWhole is the whole-run read without the measurement engine: one
// engine per tool, run to the end, each tool's counters read directly.
func directWhole(t *testing.T, an *Analysis, hier cache.HierarchyConfig, tcfg timing.Config) (MixProfile, CacheProfile, CPIProfile) {
	t.Helper()
	run := func(tool pin.Tool) uint64 {
		engine := pin.NewEngine(an.Prog)
		if err := engine.Attach(tool); err != nil {
			t.Fatal(err)
		}
		return engine.RunToEnd()
	}
	mix := pintool.NewLdStMix()
	n := run(mix)
	mixProf := MixProfile{Fractions: mix.Fractions(), Instrs: n}
	h, err := cache.NewHierarchy(hier)
	if err != nil {
		t.Fatal(err)
	}
	n = run(pintool.NewAllCache(h))
	l1d, l2, l3 := h.MissRates()
	cacheProf := CacheProfile{L1D: l1d, L2: l2, L3: l3, L1I: h.L1I.Stats().MissRate(),
		L3Accesses: h.L3.Stats().Accesses, Instrs: n}
	core, err := timing.NewCore(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	run(core)
	c := core.Counters()
	return mixProf, cacheProf, CPIProfile{CPI: c.CPI(), Cycles: c.Cycles, Instrs: c.Instructions}
}

// TestMeasureDifferential pins the one measurement engine bit for bit
// (==, every field) against the reads it replaced, per benchmark and
// warm-up:
//   - one pass with {mix, cache, CPI} equals the three single-tool passes;
//   - re-weighting the Regional measurement by Reduce(0.9) equals replaying
//     the reduced pinballs;
//   - the one-region whole run equals reading each tool's whole run
//     directly.
func TestMeasureDifferential(t *testing.T) {
	// 16 is experiments.DefaultWarmupSlices (which this package cannot
	// import): the Fig. 8 and Fig. 12 warm-up.
	const defaultWarmup = 16
	type tcase struct {
		bench  string
		warmup int
	}
	var cases []tcase
	for _, bench := range []string{"505.mcf_r", "541.leela_r", "519.lbm_r", "623.xalancbmk_s"} {
		for _, w := range []int{0, defaultWarmup} {
			cases = append(cases, tcase{bench, w})
		}
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/warmup=%d", tc.bench, tc.warmup), func(t *testing.T) {
			an := analyzeBench(t, tc.bench)
			hier, tcfg := an.CacheConfig(), an.TimingConfig()
			all := Tools{Mix: true, Cache: &hier, CPI: &tcfg}

			pbs, err := an.Pinballs(an.Result, tc.warmup)
			if err != nil {
				t.Fatal(err)
			}
			joint, err := an.Measure(tctx, pbs, all)
			if err != nil {
				t.Fatal(err)
			}
			var single [3]Measurement
			for k, tools := range []Tools{{Mix: true}, {Cache: &hier}, {CPI: &tcfg}} {
				if single[k], err = an.Measure(tctx, pbs, tools); err != nil {
					t.Fatal(err)
				}
			}
			for i, r := range joint.Regions {
				if r.Mix != single[0].Regions[i].Mix || r.Cache != single[1].Regions[i].Cache ||
					r.CPI != single[2].Regions[i].CPI {
					t.Errorf("region %d: joint pass differs from single-tool passes", i)
				}
			}
			if joint.Mix() != single[0].Mix() || joint.Cache() != single[1].Cache() || joint.CPI() != single[2].CPI() {
				t.Error("joint aggregates differ from single-tool aggregates")
			}

			reduced, err := an.Result.Reduce(0.9)
			if err != nil {
				t.Fatal(err)
			}
			// Reduce keeps the regional weights; the uniform variant also
			// checks that re-weighting takes the selection's own weights.
			uniform := *reduced
			uniform.Points = append([]simpoint.Point(nil), reduced.Points...)
			for i := range uniform.Points {
				uniform.Points[i].Weight = 1
			}
			for _, sel := range []*simpoint.Result{reduced, &uniform} {
				rpbs, err := an.Pinballs(sel, tc.warmup)
				if err != nil {
					t.Fatal(err)
				}
				replayed, err := an.Measure(tctx, rpbs, all)
				if err != nil {
					t.Fatal(err)
				}
				reweighted, err := joint.Reweight(sel)
				if err != nil {
					t.Fatal(err)
				}
				if len(reweighted.Regions) != len(replayed.Regions) {
					t.Fatalf("re-weighted %d regions, replayed %d", len(reweighted.Regions), len(replayed.Regions))
				}
				for i := range replayed.Regions {
					if reweighted.Regions[i] != replayed.Regions[i] {
						t.Errorf("reduced region %d: re-weighted differs from replayed", i)
					}
				}
				if reweighted.Mix() != replayed.Mix() || reweighted.Cache() != replayed.Cache() || reweighted.CPI() != replayed.CPI() {
					t.Error("re-weighted aggregates differ from replaying the reduced pinballs")
				}
			}

			if tc.warmup != 0 {
				return // the whole run has no warm-up; check it once
			}
			whole, err := an.MeasureWhole(tctx, all)
			if err != nil {
				t.Fatal(err)
			}
			mix, cp, cpi := directWhole(t, an, hier, tcfg)
			if whole.Mix() != mix || whole.Cache() != cp || whole.CPI() != cpi {
				t.Errorf("whole run differs from the direct reads:\n%+v\n%+v", whole.Regions[0], []interface{}{mix, cp, cpi})
			}
		})
	}
}
