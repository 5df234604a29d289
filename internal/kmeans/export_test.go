package kmeans

import "testing"

// Test-only bridges to the plain (pre-bounds) reference kernel. The bounded
// kernel's contract is bit-identity with this path; the TestBoundedMatches*
// tests in this package and the suite-fixture tests in bounded_suite_test.go
// (package kmeans_test) compare the two through these hooks.

// RunPlain clusters with the plain Lloyd kernel (no triangle-inequality
// bounds) — the reference implementation the determinism tests pin the
// bounded default against.
func RunPlain(points [][]float64, k int, cfg Config) (*Result, error) {
	if err := validatePoints(points, k); err != nil {
		return nil, err
	}
	return runFlat(flatten(points), k, cfg, false), nil
}

// RunWeightedPlain is RunWeighted through the plain Lloyd kernel.
func RunWeightedPlain(points [][]float64, weights []float64, k int, cfg Config) (*Result, error) {
	m, err := weightedMatrix(points, weights, k)
	if err != nil {
		return nil, err
	}
	return runFlat(m, k, cfg, false), nil
}

// BestKPlain is BestK running every candidate through the plain kernel.
func BestKPlain(points [][]float64, maxK int, threshold float64, cfg Config) (*Result, map[int]float64, error) {
	if err := validatePoints(points, 1); err != nil {
		return nil, nil, err
	}
	return bestKWith(flatten(points), maxK, threshold, cfg, false)
}

// GaussianClusters exposes the synthetic cluster generator to the
// external-package tests.
var GaussianClusters = gaussianClusters

// SuiteFixture returns a suite benchmark's projected small-scale BBVs at
// simpoint.DefaultSeed. The external test package sets it (this package
// cannot import simpoint, which imports it), so in-package tests can check
// internals on the points the pipeline clusters.
var SuiteFixture func(tb testing.TB, name string) [][]float64
