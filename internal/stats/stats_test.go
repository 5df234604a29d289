package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestWeightedMean(t *testing.T) {
	got := WeightedMean([]float64{1, 2, 3}, []float64{1, 1, 2})
	if !approx(got, 2.25, 1e-12) {
		t.Errorf("WeightedMean = %v, want 2.25", got)
	}
}

func TestWeightedMeanUnnormalizedWeights(t *testing.T) {
	a := WeightedMean([]float64{4, 8}, []float64{0.25, 0.75})
	b := WeightedMean([]float64{4, 8}, []float64{25, 75})
	if !approx(a, b, 1e-12) {
		t.Errorf("weight scaling changed the mean: %v vs %v", a, b)
	}
}

func TestWeightedMeanEmptyAndZeroWeight(t *testing.T) {
	if got := WeightedMean(nil, nil); got != 0 {
		t.Errorf("empty = %v", got)
	}
	if got := WeightedMean([]float64{5}, []float64{0}); got != 0 {
		t.Errorf("zero weight = %v", got)
	}
}

func TestWeightedMeanPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on length mismatch")
		}
	}()
	WeightedMean([]float64{1}, []float64{1, 2})
}

func TestWeightedMeanEqualWeightsIsMean(t *testing.T) {
	f := func(raw []float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e9 {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		w := make([]float64, len(vals))
		for i := range w {
			w[i] = 1
		}
		return approx(WeightedMean(vals, w), Mean(vals), 1e-6*(1+math.Abs(Mean(vals))))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanAndVariance(t *testing.T) {
	vals := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(vals); !approx(got, 5, 1e-12) {
		t.Errorf("Mean = %v", got)
	}
	if got := Variance(vals); !approx(got, 4, 1e-12) {
		t.Errorf("Variance = %v", got)
	}
	if got := StdDev(vals); !approx(got, 2, 1e-12) {
		t.Errorf("StdDev = %v", got)
	}
}

func TestVarianceDegenerate(t *testing.T) {
	if Variance(nil) != 0 || Variance([]float64{3}) != 0 {
		t.Error("degenerate variance should be 0")
	}
}

func TestVarianceNonNegative(t *testing.T) {
	f := func(vals []float64) bool {
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				return true
			}
		}
		return Variance(vals) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRelErrorPct(t *testing.T) {
	if got := RelErrorPct(110, 100); !approx(got, 10, 1e-12) {
		t.Errorf("RelErrorPct = %v", got)
	}
	if got := RelErrorPct(90, 100); !approx(got, 10, 1e-12) {
		t.Errorf("RelErrorPct = %v", got)
	}
	if got := RelErrorPct(0, 0); got != 0 {
		t.Errorf("0/0 error = %v", got)
	}
	if got := RelErrorPct(1, 0); !math.IsInf(got, 1) {
		t.Errorf("x/0 error = %v, want +Inf", got)
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Pearson(xs, ys); !approx(got, 1, 1e-12) {
		t.Errorf("perfect correlation = %v", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(xs, neg); !approx(got, -1, 1e-12) {
		t.Errorf("perfect anticorrelation = %v", got)
	}
	flat := []float64{3, 3, 3, 3, 3}
	if got := Pearson(xs, flat); got != 0 {
		t.Errorf("constant series correlation = %v", got)
	}
}

func TestPearsonBounds(t *testing.T) {
	f := func(seed int64) bool {
		xs := make([]float64, 10)
		ys := make([]float64, 10)
		s := uint64(seed)
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(s>>33) / float64(1<<31)
		}
		for i := range xs {
			xs[i] = next()
			ys[i] = next()
		}
		r := Pearson(xs, ys)
		return r >= -1.0000001 && r <= 1.0000001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
