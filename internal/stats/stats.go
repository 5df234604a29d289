// Package stats provides the statistical helpers the reproduction needs:
// weighted aggregation of per-region statistics (the paper's "weighted
// average of the statistics reported by each [regional pinball]"),
// error metrics between sampled and whole runs, and correlation measures
// used to compare native execution against sampled simulation.
package stats

import (
	"fmt"
	"math"
)

// WeightedMean returns the weight-normalised mean of values. It is the
// aggregation rule the paper prescribes in Section IV-D: each simulation
// point reports a per-instruction-normalised statistic (miss rate, CPI,
// mix fraction), and the suite-level value is the weight-average. Weights
// need not sum to one; they are normalised internally. It panics if the
// slices differ in length and returns 0 for empty input or zero total
// weight.
func WeightedMean(values, weights []float64) float64 {
	if len(values) != len(weights) {
		panic(fmt.Sprintf("stats: %d values vs %d weights", len(values), len(weights)))
	}
	var sum, wsum float64
	for i, v := range values {
		sum += v * weights[i]
		wsum += weights[i]
	}
	if wsum == 0 {
		return 0
	}
	return sum / wsum
}

// Mean returns the arithmetic mean, or 0 for empty input.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// Variance returns the population variance, or 0 for fewer than 2 values.
func Variance(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	m := Mean(values)
	var sum float64
	for _, v := range values {
		d := v - m
		sum += d * d
	}
	return sum / float64(len(values))
}

// StdDev returns the population standard deviation.
func StdDev(values []float64) float64 { return math.Sqrt(Variance(values)) }

// tTable95 holds two-sided 95 % Student-t critical values by degrees of
// freedom (index 1..30); larger samples use the normal 1.96.
var tTable95 = [...]float64{0,
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// CI95 returns the half-width of the 95 % confidence interval on the mean
// of values — Student-t with n-1 degrees of freedom over the sample
// standard deviation, the small-sample interval the repeated-subsampling
// papers report. It returns 0 for fewer than 2 values (no spread to
// estimate).
func CI95(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	m := Mean(values)
	var sum float64
	for _, v := range values {
		d := v - m
		sum += d * d
	}
	sd := math.Sqrt(sum / float64(n-1))
	t := 1.96
	if dof := n - 1; dof < len(tTable95) {
		t = tTable95[dof]
	}
	return t * sd / math.Sqrt(float64(n))
}

// AbsError returns |measured - reference|.
func AbsError(measured, reference float64) float64 {
	return math.Abs(measured - reference)
}

// RelErrorPct returns the relative error of measured against reference, in
// percent. When the reference is zero the error is defined as 0 if measured
// is also zero, else +Inf — callers filter such degenerate metrics.
func RelErrorPct(measured, reference float64) float64 {
	if reference == 0 {
		if measured == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(measured-reference) / math.Abs(reference) * 100
}

// Pearson returns the Pearson correlation coefficient between two
// equal-length series, or 0 when either series is constant.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("stats: %d xs vs %d ys", len(xs), len(ys)))
	}
	if len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
