package subset

import (
	"math"
	"testing"

	"specsampling/internal/workload"
)

func characterizeSome(t testing.TB, names ...string) []Features {
	t.Helper()
	var specs []workload.Spec
	for _, n := range names {
		s, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	fs, err := CharacterizeSuite(specs, workload.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestCharacterizeProducesSaneFeatures(t *testing.T) {
	fs := characterizeSome(t, "541.leela_r", "505.mcf_r")
	for _, f := range fs {
		var sum float64
		for _, v := range f.Mix {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: mix sums to %v", f.Benchmark, sum)
		}
		for _, v := range []float64{f.L1DMiss, f.L2Miss, f.L3Miss} {
			if v < 0 || v > 1 {
				t.Errorf("%s: miss rate %v out of range", f.Benchmark, v)
			}
		}
		if f.CPI <= 0 || f.CPI > 50 {
			t.Errorf("%s: CPI %v", f.Benchmark, f.CPI)
		}
		if f.BranchMPKI < 0 {
			t.Errorf("%s: negative MPKI", f.Benchmark)
		}
	}
	// A compute-lean benchmark must look different from pointer chasing.
	if fs[0].L1DMiss >= fs[1].L1DMiss {
		t.Errorf("leela L1D miss %v should be below mcf's %v", fs[0].L1DMiss, fs[1].L1DMiss)
	}
}

func TestSubsetGroupsSimilarBenchmarks(t *testing.T) {
	// Two compute-lean (leela_r / leela_s share a profile) and two
	// pointer-chasing benchmarks: subsetting should need fewer groups than
	// benchmarks, and the representatives must cover both behaviours.
	fs := characterizeSome(t, "541.leela_r", "641.leela_s", "505.mcf_r", "605.mcf_s")
	res, err := Subset(fs, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) == 0 || len(res.Groups) > 4 {
		t.Fatalf("%d groups", len(res.Groups))
	}
	total := 0
	for _, g := range res.Groups {
		if g.Representative == "" {
			t.Error("group without representative")
		}
		found := false
		for _, m := range g.Members {
			if m == g.Representative {
				found = true
			}
		}
		if !found {
			t.Error("representative not among members")
		}
		total += len(g.Members)
	}
	if total != len(fs) {
		t.Errorf("groups cover %d of %d benchmarks", total, len(fs))
	}
	if res.Coverage <= 0 || res.Coverage > 1 {
		t.Errorf("coverage %v", res.Coverage)
	}
	if got := len(res.Representatives()); got != len(res.Groups) {
		t.Errorf("%d representatives for %d groups", got, len(res.Groups))
	}
}

func TestSubsetValidation(t *testing.T) {
	if _, err := Subset(nil, 3, 1); err == nil {
		t.Error("empty features accepted")
	}
	if _, err := Subset([]Features{{}}, 0, 1); err == nil {
		t.Error("zero maxGroups accepted")
	}
}

func TestSubsetSingleBenchmark(t *testing.T) {
	fs := characterizeSome(t, "541.leela_r")
	res, err := Subset(fs, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 1 || res.Groups[0].Representative != "541.leela_r" {
		t.Errorf("single-benchmark subset = %+v", res.Groups)
	}
	if res.Coverage != 1 {
		t.Errorf("coverage %v", res.Coverage)
	}
}

func TestZScore(t *testing.T) {
	vs := [][]float64{{1, 5, 7}, {3, 5, 1}}
	out := zscore(vs)
	// Dimension 1 is constant -> zero.
	if out[0][1] != 0 || out[1][1] != 0 {
		t.Error("constant dimension not zeroed")
	}
	// Dimension 0: mean 2, std 1 -> -1 and +1.
	if math.Abs(out[0][0]+1) > 1e-9 || math.Abs(out[1][0]-1) > 1e-9 {
		t.Errorf("z-scores = %v %v", out[0][0], out[1][0])
	}
	if zscore(nil) != nil {
		t.Error("empty input should return nil")
	}
}

func TestCharacterizeDeterministic(t *testing.T) {
	a := characterizeSome(t, "557.xz_r")[0]
	b := characterizeSome(t, "557.xz_r")[0]
	if a != b {
		t.Errorf("characterization not deterministic: %+v vs %+v", a, b)
	}
}

func TestSubsetKFixedCount(t *testing.T) {
	fs := characterizeSome(t, "541.leela_r", "641.leela_s", "505.mcf_r", "605.mcf_s")
	res, err := SubsetK(fs, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 3 {
		t.Errorf("SubsetK(3) returned %d groups", len(res.Groups))
	}
	// Clamping: k above the benchmark count must not error.
	res, err = SubsetK(fs, 10, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) > 4 {
		t.Errorf("%d groups for 4 benchmarks", len(res.Groups))
	}
}
