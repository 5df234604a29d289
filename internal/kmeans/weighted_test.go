package kmeans

import (
	"math"
	"strconv"
	"testing"
)

func uniformWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

func TestRunWeightedValidation(t *testing.T) {
	pts := [][]float64{{1}, {2}}
	if _, err := RunWeighted(nil, nil, 2, DefaultConfig(1)); err == nil {
		t.Error("empty points accepted")
	}
	if _, err := RunWeighted(pts, []float64{1}, 2, DefaultConfig(1)); err == nil {
		t.Error("mismatched weights accepted")
	}
	if _, err := RunWeighted(pts, []float64{1, -1}, 2, DefaultConfig(1)); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := RunWeighted(pts, []float64{0, 0}, 2, DefaultConfig(1)); err == nil {
		t.Error("all-zero weights accepted")
	}
	if _, err := RunWeighted(pts, []float64{1, 1}, 0, DefaultConfig(1)); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := RunWeighted([][]float64{{1}, {1, 2}}, []float64{1, 1}, 1, DefaultConfig(1)); err == nil {
		t.Error("ragged points accepted")
	}
}

// TestRunWeightedUniformMatchesUnweighted pins the fold of weights into the
// one kernel: unit weights must reproduce the unweighted results bit for
// bit — Run and BestK alike, with and without subsampling (n exceeds the
// default 4096-point sample) and for serial and parallel kernels.
func TestRunWeightedUniformMatchesUnweighted(t *testing.T) {
	points, _ := gaussianClusters(3, 1400, 5, 0.2, 21)
	unit := uniformWeights(len(points))
	for _, sample := range []int{0, DefaultConfig(0).SampleSize} {
		for _, workers := range []int{1, 3} {
			cfg := DefaultConfig(5)
			cfg.SampleSize, cfg.Workers = sample, workers
			label := "sample=" + strconv.Itoa(sample) + "/workers=" + strconv.Itoa(workers)

			uw, err := RunWeighted(points, unit, 3, cfg)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := Run(points, 3, cfg)
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, plain, uw, "run/"+label)

			uwBest, uwBIC, err := BestKWeighted(points, unit, 8, 0.9, cfg)
			if err != nil {
				t.Fatal(err)
			}
			best, bic, err := BestK(points, 8, 0.9, cfg)
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, best, uwBest, "bestk/"+label)
			if len(uwBIC) != len(bic) {
				t.Fatalf("%s: BIC map sizes differ: %d != %d", label, len(uwBIC), len(bic))
			}
			for k, v := range bic {
				if math.Float64bits(uwBIC[k]) != math.Float64bits(v) {
					t.Fatalf("%s: BIC[%d] %v != %v", label, k, uwBIC[k], v)
				}
			}
		}
	}
}

func TestRunWeightedCentroidFollowsMass(t *testing.T) {
	// Two points, one cluster: the centroid must be the weighted mean.
	points := [][]float64{{0}, {10}}
	res, err := RunWeighted(points, []float64{9, 1}, 1, DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Centroids[0][0]-1) > 1e-9 {
		t.Errorf("weighted centroid = %v, want 1", res.Centroids[0][0])
	}
}

func TestRunWeightedZeroWeightPointAssigned(t *testing.T) {
	points := [][]float64{{0}, {0.1}, {10}}
	res, err := RunWeighted(points, []float64{1, 0, 1}, 2, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assign) != 3 {
		t.Fatal("not all points assigned")
	}
	// The zero-weight point near 0 must share a cluster with point 0.
	if res.Assign[1] != res.Assign[0] {
		t.Error("zero-weight point assigned to the far cluster")
	}
}

func TestRunWeightedHeavyPointDominates(t *testing.T) {
	// A heavy singleton and many light points: with k=2 the heavy point
	// must anchor its own centroid exactly.
	points := [][]float64{{100}}
	weights := []float64{1000}
	for i := 0; i < 50; i++ {
		points = append(points, []float64{float64(i % 5)})
		weights = append(weights, 1)
	}
	res, err := RunWeighted(points, weights, 2, DefaultConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	c := res.Assign[0]
	if math.Abs(res.Centroids[c][0]-100) > 1e-6 {
		t.Errorf("heavy point's centroid at %v", res.Centroids[c][0])
	}
}

func TestBestKWeighted(t *testing.T) {
	points, _ := gaussianClusters(4, 50, 6, 0.15, 23)
	res, scores, err := BestKWeighted(points, uniformWeights(len(points)), 10, 0.9, DefaultConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if res.K < 3 || res.K > 6 {
		t.Errorf("BestKWeighted chose %d for 4 clusters", res.K)
	}
	if len(scores) == 0 {
		t.Error("no scores")
	}
	if _, _, err := BestKWeighted(points, uniformWeights(len(points)), 0, 0.9, DefaultConfig(8)); err == nil {
		t.Error("maxK=0 accepted")
	}
}
